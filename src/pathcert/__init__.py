"""Certifying graph algorithms around forbidden induced paths.

The package extracts one of a small set of verifiable structures from a
graph - an induced path, an empty/complete bipartite pair, or a sparse/dense
vertex set - and ships an independent verifier for each, so every answer can
be re-checked against the caller's graph.
"""

from .graph import (Graph, VertexSet, build_graph, complement, components,
                    complete_bipartite_graph, complete_graph, cycle_graph,
                    empty_graph, friendship_graph, induced, path_graph)
from .witnesses import (BipartitePairWitness, HomogeneousSetWitness,
                        InducedPathWitness, PatternEmbedding, Verdict, verify,
                        verify_bipartite_pair, verify_embedding,
                        verify_homogeneous, verify_induced_path)
from .patterns import PatternQueryResult, find_induced_path, is_pk_copk_free
from .homogeneous import find_epsilon_homogeneous, prune_high_degree
from .extractor import (DisconnectedError, ExtractorParams, path_or_empty_bipartite,
                        split_small_components)
from .cographs import OracleError, cograph_alpha_omega, cotree, p4free_extract
from .pipeline import (ExtractionReport, PipelineConstants, choose_constants,
                       eh_homogeneous, extract_linear_bipartite)
from .generators import (CertifiedSample, GeneratorSpec, generate, gnp,
                         random_cograph, rejection_sample_ck)

__version__ = "0.1.0"
