"""Numerics for Schroedinger semigroups on the weighted half-line.

The measure is x^alpha dx on (0, inf).  The package evaluates the exact
Bessel heat kernel, builds stopping-time interval sections from a potential,
evolves the Schroedinger semigroup by Strang splitting with a Feynman-Kac
Monte Carlo cross-check (and, for the superharmonic sweep, conditions (D)
and (K) and the Hardy norms, exactly in time from the spectrum of a
finite-volume generator), and realizes the local Hardy-space atom machinery
(atoms, maximal functions, re-supporting) together with the large-time and
small-time decay checks that sections are supposed to satisfy.
"""

from .bessel import bessel_i_scaled, bessel_i_scaled_ratio
from .errors import (
    BalanceUnreachable,
    BesselHardyError,
    ConfigError,
    CutoffViolation,
    DegeneratePotential,
    InvalidInput,
    MixedGrids,
    NonLocallyIntegrable,
    QuadratureBudgetExceeded,
    SupportViolation,
)
from .grid import CellRange, Grid, GridFunction
from .hardy import (
    Atom,
    AtomKind,
    AtomicCombination,
    Bump,
    HardyNormResult,
    PartitionBump,
    hardy_norm,
    local_hardy_norm,
    make_cancellative_atom,
    make_cutoff,
    make_local_atom,
    make_mu_atom,
    maximal_function,
    partition_of_unity,
    resupport_atom,
    validate_atom,
)
from .kernel import (
    GaussianBoundReport,
    SampleSpec,
    gaussian_bound_constants,
    heat_kernel,
    heat_kernel_mass_residual,
    kernel_matrix,
)
from .conditions import (
    DecayFitReport,
    SuperharmonicProfile,
    check_condition_D,
    check_condition_K,
    check_superharmonic,
    find_balanced_J,
    phi_equation_residual,
)
from .measure import (
    Interval,
    Potential,
    WeightedMeasure,
    ball,
    enlarge,
    load_potential,
    parse_potential,
)
from .section import (
    DyadicInterval,
    ProperSection,
    brute_force_section,
    build_section,
    s_functional,
    validate_section,
)
from .semigroup import (
    FeynmanKacResult,
    SplittingScheme,
    besq_terminal_samples,
    feynman_kac,
    heat_evolve,
    perturbation_residual,
    schrodinger_apply,
)

__version__ = "0.1.0"
