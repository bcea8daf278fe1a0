"""Built-in target processor models.

The paper evaluates retargeting on six processors: two simple examples
(``demo``, ``ref``), two educational machines (``manocpu`` after Mano's
basic computer, ``tanenbaum`` after Tanenbaum's Mac-1), an industrial audio
ASIP (``bass_boost``) and the Texas Instruments TMS320C25 DSP.  This
package ships HDL models of all six (simplified but architecturally
faithful) in :mod:`repro.targets.models`; the target registry
(:func:`repro.toolchain.default_registry`) registers them in the order of
table 3 together with the metadata used by the experiments.
"""
