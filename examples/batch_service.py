#!/usr/bin/env python3
"""The compile service: mixed-target batches with pooled sessions.

Builds a batch of requests across three processors (including one request
that is deliberately broken), runs it through a
:class:`ThreadCompileBackend`, and prints the per-request outcomes plus
the backend statistics that show retargeting was paid once per distinct
target -- the amortization that makes batch traffic cheap.

Run with::

    python examples/batch_service.py

The CLI equivalent is ``repro batch jobs.jsonl`` with one JSON object per
line, e.g. ``{"target": "tms320c25", "kernel": "fir"}``.
"""

import json

from repro.service import CompileRequest, CompileResponse, ThreadCompileBackend


def main():
    requests = [
        CompileRequest(target="tms320c25", kernel="fir", request_id="job-0"),
        CompileRequest(target="tms320c25", kernel="biquad_one", request_id="job-1"),
        CompileRequest(target="demo", kernel="real_update", request_id="job-2"),
        CompileRequest(target="ref", kernel="dot_product", request_id="job-3"),
        CompileRequest(
            target="demo",
            source="int a, b, c; c = a * b + a;",
            name="mac",
            request_id="job-4",
        ),
        CompileRequest(
            target="tms320c25",
            kernel="fir",
            preset="no-chained",
            request_id="job-5",
        ),
        # Deliberately broken: the service isolates the failure into a
        # structured error response instead of killing the batch.
        CompileRequest(
            target="demo", source="definitely not a program", request_id="job-6"
        ),
        CompileRequest(target="ref", source="int a, b; b = a + 7;", request_id="job-7"),
    ]

    with ThreadCompileBackend() as backend:
        responses = [
            CompileResponse.from_dict(response)
            for response in backend.run_jobs([r.to_dict() for r in requests])
        ]

    print("== responses (in request order) ==")
    for response in responses:
        if response.ok:
            result = response.result
            print(
                "  %-6s ok   %-12s on %-10s %3d words, %d RTs, %.1f ms"
                % (
                    response.request_id,
                    result.name,
                    response.target,
                    result.code_size,
                    result.operation_count,
                    1000 * response.elapsed_s,
                )
            )
        else:
            print(
                "  %-6s FAIL %-12s on %-10s %s: %s"
                % (
                    response.request_id,
                    response.name,
                    response.target,
                    response.error.type,
                    response.error.message,
                )
            )

    print("\n== backend statistics ==")
    print(json.dumps(backend.stats(), indent=2))
    print(
        "\nretargeting ran %d time(s) for %d requests over %d distinct targets"
        % (
            backend.service.pool.retarget_count,
            len(requests),
            len({r.target for r in requests}),
        )
    )

    # One successful response, serialized the way `repro batch` emits it:
    print("\n== one JSON-lines response (status only) ==")
    print(responses[0].to_json(include_result=False))


if __name__ == "__main__":
    main()
