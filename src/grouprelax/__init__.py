"""Exact group relaxations of pure integer programs: bound chains,
kernel-coset search, and spectral diagnostics at desk scale."""

from .errors import (CapExceeded, CertificateError, DenseLimitExceeded,
                     DiagnosticUnavailable, EmptyWidthBand, GroupRelaxError,
                     Infeasible, MalformedMPS, NotPureILP, PatternLimitExceeded,
                     Unbounded)
from .exact import IntMatrix, SNFResult, det_exact, ext_gcd, snf
from .gen import CutStockSpec, cutgen, planted
from .kernel import FeasibleCoset, KernelBasis, column_orders, feasible_coset, range_order
from .lp import BasisSolution, ILPInstance, StandardFormILP, solve_lp_exact, to_standard_form
from .mps import emit_mps, parse_mps
from .pipeline import PipelineConfig, ReportRow, emit_report, run_pipeline
from .relax import (BoundChain, GroupRelaxationData, GroupSolution, LinearCost,
                    bound_chain, build_group_relaxation, lift_to_ilp, relax_ilp)
from .search import (ILPOptimum, SearchConfig, SearchResult, branch_and_bound,
                     brute_force_group, brute_force_ilp, gomory_shortest_path,
                     markov_chain_search, solve_group)
from .spdiag import (SPParams, SPReport, ground_overlap, sp_diagnose, speedup_conditions,
                     theta_eta)
from .walks import (CayleyWalkSpec, character_gap, cyclic_metric,
                    expander_generation, log_sobolev_lower, metropolis_step,
                    pseudo_lipschitz, spectral_gap, step, transition_matrix)

__version__ = "0.1.0"
