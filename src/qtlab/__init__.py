"""qtlab: metric graphs, hyperbolicity estimates, partial group actions and
their orbit geometry, product spaces, and exact arithmetic for a family of
CAT(0) lattice extensions."""

__version__ = "0.1.0"

from ._kernels import backend
from .errors import (QtlabError, EmptyGraph, DisconnectedGraph, SizeLimitExceeded,
                     VertexNotFound, FormatError, OutOfTruncation, NotATree,
                     NotAQuasitree, EndNotInvariant, CenterNotFound, RadiusTooLarge,
                     InvalidChain, UnknownFamily, UnknownFixture, NegativeExponent,
                     DimensionMismatch, NormMismatch, FactorMismatch, DegenerateSamples)
from .metric_graph import (MetricGraph, graph_from_ids, hyperbolicity_delta,
                           four_point_defect2, bottleneck_constant, is_quasitree,
                           enumerate_geodesics, ends_profile)
from .group_action import (GroupAction, action_from_maps, Word, evaluate_word, word_map, orbit,
                           check_locally_finite_orbit, rips_orbit_graph,
                           connectivity_radius, stable_translation_length,
                           tree_translation_length, classify_isometry,
                           serre_elliptic_test, busemann_homomorphism,
                           realized_elements, properness_profiles,
                           orbit_quasiconvexity, classify_action_type)
from .constructions import (Construction, path_graph, cycle_graph, grid_graph,
                            star_graph, regular_tree, rips_graph, FiniteGroupTable,
                            c6_chain, c30_chain, coset_tree, cayley_graph,
                            farey_graph, bass_serre_tree_bs12, cone_graph,
                            double_line_graph, horoball)
from .products import (ProductSpace, ProductDistance, product_distance,
                       product_skeleton, l1_geodesic_uniqueness, ProductIsometry,
                       factor_preservation_check, product_action, distortion_profile,
                       point_id, point_of)
from .leary_minasyan import (ExactMat2, matrix_power, GaussianInt,
                             gaussian_power_check, PlanarIsometry, lm_linear_rep,
                             conjugation_exponents, lm_obstruction_check,
                             fit_translation_homomorphism, seminorm_audit)
from .io import (save_graph, load_graph, save_action, load_action,
                 graph_to_dict, graph_from_dict, action_to_dict, action_from_dict)
