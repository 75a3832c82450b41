"""Classical simulator and experiment harness for the subexponential
sieve algorithms on dihedral hidden subgroups and abelian hidden shifts.

Layers, bottom up: group arithmetic (group), hiding oracles (oracle),
the phase-qubit abstraction (phase), an exact dense verifier (statevec),
the staged/interval sieves (staged), the greedy radix sieve (greedy),
full-secret recoveries (recover), and the experiment harness + CLI
(harness, cli).
"""

from .errors import (
    BackendMismatchError,
    DhsieveError,
    InsufficientCopiesError,
    NoHiddenReflectionError,
    QubitConsumedError,
    SieveExhaustedError,
)
from .group import (
    AbelianGroupSpec,
    DihedralElement,
    GroupCtx,
    dmul,
    identity,
    subgroup_embed,
    unit_for_odd_part,
)
from .oracle import (
    HidingOracle,
    OracleValue,
    ShiftPair,
    SubstringInstance,
    make_reflection_oracle,
    make_shift_pair,
    make_trivial_oracle,
    restrict_reflection,
    shift_to_dihedral,
    splice_substring,
    with_label_automorphism,
)
from .phase import (
    PhaseBackend,
    PhaseQubit,
    combine,
    cosine_observe,
    hoyer_readout,
    measure_pm,
    negate_label,
    sample_phase_qubit,
    tomography_mod_r,
)
from .statevec import (
    DensityMatrix,
    PureState,
    coset_state,
    extract_sim,
    qft_measure_sim,
    rho_coset_mixture,
    trace_distance,
)
from .staged import (
    SieveStats,
    interval_sieve,
    match_by_suffix,
    run_general_interval,
    run_staged_parity,
)
from .greedy import (
    Objective,
    alpha_abelian,
    alpha_radix,
    cancellation_race,
    greedy_sieve,
    run_radix_recovery,
)
from .recover import (
    RecoveryReport,
    recover_slope_general,
    recover_slope_power2,
    recover_slope_radix,
    solve_abelian_shift,
    solve_substring,
    verify_reflection,
)
from .harness import ResultRow, fit_scaling, run_table1, verify_suite

__version__ = "0.1.0"
