"""Link-failure detection, isolation and sensor placement for LTI networks."""

from .graph import (INFINITE, Digraph, DistanceMatrix, Edge, diameter, distances,
                    finite_diameter, gen_cycle, gen_random_geometric, gen_star,
                    remove_edge, walk_matrix)
from .dynamics import (DegenerateModelError, ExogenousInput, FailureEvent,
                       JumpPrediction, NetworkSystem, SimulationTrace,
                       SubsystemModel, closed_loop, fault_replicant_check,
                       jump_oracle, markov_parameter, one_sided_derivative,
                       q_matrix, relative_degree, simulate, simulate_edge_failures,
                       theoretical_jump)
from .fdi import (DetectorConfig, IsolationResult, JumpSignature, LookupTable,
                  RelationMatrix, default_order_budget, detect, detect_edge_failures,
                  detectable, diagnose, estimate_one_sided_derivative, isolate,
                  lookup_table, relation_matrix, sweep_summary)
from .placement import (PlacementReport, approximation_report, binary_incidence,
                        brute_force_min_detection, brute_force_min_isolation,
                        coverage_deficit, greedy_detection, greedy_isolation,
                        harmonic, indicator_set, resolution_deficit,
                        unidentified_edges, unresolved_pairs)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
