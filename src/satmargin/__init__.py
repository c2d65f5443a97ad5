"""satmargin: CNF-to-inequality reduction, decision-chain family synthesis,
exact Fourier-Motzkin projection, decision margins, and the LP-estimation
Horn solver, all over exact rational arithmetic."""

from .cnf import (CNF, Clause, Literal, FragmentTag, SolveResult,
                  parse_dimacs, to_dimacs, evaluate, classify,
                  brute_force_models, dominant_variables, solve_2sat,
                  solve_horn_unit_prop, solve_xor_gauss)
from .reduction import (BoundedInequality, InequalitySystem,
                        clause_to_inequality, cnf_to_system, satisfies,
                        integral_points, fix_variables, format_system)
from .chains import (ChainSpec, DominantBlockSpec, CoupledFamilySpec,
                     SynthesizedInstance, make_chain, chain_cnf,
                     attach_dominant, synthesize, synthesize_fragment_family,
                     capacity, verify_dominance, instance_to_dimacs)
from .elimination import (EliminationTrace, AggregateInequality,
                          NumberSystemReport, fm_project,
                          chain_aggregate, decompose_base_b, digits_match,
                          max_exponent, number_system_report, integral_tighten)
from .simplex import ExactSimplex
from .margin import (DecisionLineId, MarginReport, decision_interval,
                     decision_margin, margin_decay_sweep, aggregate_system)
from .horn_lp import HornSolveReport, solve_horn_margin

__version__ = "0.1.0"
