"""Streaming spectral sparsification for graphs and hypergraphs."""

from .graph import (DisconnectedError, Graph, IncidenceRow, KernelMismatchError,
                    SpectralSketch, WeightedEdge,
                    effective_resistance, laplacian, leverage, leverages,
                    pseudo_inverse, pseudo_solve, rayleigh_error)
from .offline import OfflineSampleConfig, er_sparsify, keep_probabilities
from .online import (OnlineSamplerState, default_c, exact_online_leverages,
                     online_sparsify)
from .merge_reduce import (MergeReduceTree, OnlineConfig, StreamPipelineConfig,
                           StreamSparsifier, TreeConfig, eps_per_level,
                           mr_sparsify, stream_sparsify)
from .hypergraph import (Hyperedge, Hypergraph, HyperSamplerConfig,
                         HyperSamplerState, associated_graph, balanced_rho,
                         fast_rho, hyper_energy, hyper_sparsify,
                         quantize_weight)
from .balance import (BalanceConfig, BalanceError, WeightAssignment,
                      augmented_graph, clique_pairs, gamma_ok,
                      get_weight_assignment, is_balanced, st_potential)
from .window import (SlidingWindowConfig, SlidingWindowState, sw_push,
                     sw_query)
from .mincut import (Cut, MinCutPipelineConfig, cut_value, stoer_wagner,
                     stream_mincut)
from .robust import (AdversaryScript, RobustHyperWrapperState,
                     RobustWrapperState, Transcript, play_game)
from .bench import ExperimentConfig, ResultRow, gen_synthetic, run_experiment
from .io import (ParseError, load_edge_list, load_hyperedge_list, load_snap,
                 save_edge_list, save_hyperedge_list)

__version__ = "0.1.0"
