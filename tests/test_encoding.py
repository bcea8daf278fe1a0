"""Unit tests for binary instruction encoding."""

import pytest

from repro.codegen.encoding import EncodedWord, InstructionEncoder


@pytest.fixture()
def encoder(tms_result):
    return InstructionEncoder(tms_result.netlist)


def _compiled_words(compiler, source):
    return compiler.compile(source).words


class TestEncodedWord:
    def test_bit_access_and_rendering(self):
        word = EncodedWord(memory="IM", width=4, value=0b1010, care_mask=0b1110)
        assert word.bit(0) is None
        assert word.bit(1) == 1
        assert word.bit(2) == 0
        assert word.bit(3) == 1
        assert word.render() == "101-"

    def test_all_dont_care(self):
        word = EncodedWord(memory="IM", width=3, value=0, care_mask=0)
        assert word.render() == "---"
        assert all(word.bit(i) is None for i in range(3))


class TestInstructionEncoder:
    def test_instruction_width(self, encoder):
        assert encoder.instruction_width == 16

    def test_encode_template_assignment(self, tms_result, encoder):
        templates = {t.render(): t for t in tms_result.extraction.template_base}
        lac = templates["ACC := DMEM"]
        encoded = encoder.encode_assignment(lac.partial_instruction())
        assert len(encoded) == 1
        word = encoded[0]
        # The opcode field (bits 15..12) must be fully constrained...
        assert all(word.bit(i) is not None for i in range(12, 16))
        # ... and the address field left as don't-cares.
        assert all(word.bit(i) is None for i in range(0, 8))

    def test_opcode_fields_differ_between_instructions(self, tms_result, encoder):
        templates = {t.render(): t for t in tms_result.extraction.template_base}
        def opcode(render):
            word = encoder.encode_assignment(templates[render].partial_instruction())[0]
            return tuple(word.bit(i) for i in range(12, 16))

        assert opcode("ACC := DMEM") != opcode("TREG := DMEM")
        assert opcode("ACC := add(ACC, DMEM)") != opcode("ACC := sub(ACC, DMEM)")

    def test_encode_program_words(self, tms_compiler, encoder):
        words = _compiled_words(tms_compiler, "int a, b, c, d; d = c + a * b;")
        encoded = encoder.encode_program(words)
        assert len(encoded) == len(words)
        for per_memory in encoded:
            assert len(per_memory) == 1
            assert per_memory[0].width == 16

    def test_encoded_bits_are_consistent_with_conditions(self, tms_compiler, encoder):
        words = _compiled_words(tms_compiler, "int a, b, d; d = a * b;")
        for word in words:
            assignment = word.partial_instruction()
            encoded = encoder.encode_word(word)[0]
            for name, value in assignment.items():
                if not name.startswith("IM.word["):
                    continue
                index = int(name[len("IM.word[") : -1])
                assert encoded.bit(index) == int(value)

    def test_listing(self, tms_compiler, encoder):
        words = _compiled_words(tms_compiler, "int a, b, d; d = a + b;")
        listing = encoder.listing(words)
        assert listing.count("IM:") == len(words)
        assert "-" in listing

    def test_demo_encoder(self, demo_result, demo_compiler):
        encoder = InstructionEncoder(demo_result.netlist)
        assert encoder.instruction_width == 16
        words = demo_compiler.compile("int a, b, d; d = a + b;").words
        assert encoder.encode_program(words)
