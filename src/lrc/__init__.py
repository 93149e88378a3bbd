"""Logical randomized compiling for qudit stabilizer codes.

Exact Weyl-operator algebra, stabilizer codes with their cospace structure,
dense channels in the natural representation, a gadget-level circuit IR,
the randomizing compilation passes, and a verification suite that checks
the construction numerically at desk scale.
"""

from .channels import (
    Superoperator,
    average,
    coherent_rotation,
    compose,
    identity_channel,
    natural_rep,
    stochastic_weyl,
    twirl,
    weyl_transfer_matrix,
)
from .circuits import (
    CompiledInstance,
    Gadget,
    LogicalCircuit,
    Register,
    evaluate,
    parse,
    serialize,
    validate,
)
from .codes import (
    StabilizerCode,
    builtin_code,
    codespace_projector,
    enumerate_pure_errors,
    enumerate_stabilizers,
    logical_weyls,
    syndrome_of,
    trivial_code,
)
from .compiler import (
    RandomizationPolicy,
    TwirlGroupSpec,
    compute_propagation_correction,
    instantiate,
)
from .verify import (
    CoherenceReport,
    VerificationReport,
    check_measurement_rc,
    check_sampling_equivalence,
    check_theorem1,
    check_theorem2,
    coherence_metrics,
    run_toffoli_example,
)
from .weyl import WeylOperator, braiding_exponent

__version__ = "0.1.0"
