"""Separated nets from prescribed densities, checkerboard Jacobian
obstructions, and quantitative stretch certificates."""

from .geometry import Rect, Similarity, UNIT_SQUARE
from .density import (
    DensityField,
    DomainError,
    constant_field,
    field_from_json,
    field_to_json,
    make_checkerboard,
    reciprocal_transplant,
    transplant,
)
from .hierarchy import (
    HierarchyDepthError,
    SegmentHierarchy,
    assemble_limit_density,
    build_hierarchy,
    embed_in_neighborhood,
)
from .certificate import (
    CertificateConstants,
    MarkedGrid,
    StretchReport,
    claim1_lhs,
    claim1_margin,
    claim2_bound,
    claim3_lhs,
    evaluate_stretch,
    feasibility_report,
    marked_grid,
    regularity,
    required_depth,
    schedule_constants,
    toy_constants,
)
from .netbuild import (
    Net,
    NetPlan,
    build_net,
    check_covering,
    check_separation,
    make_plan,
    measure_report,
    net_from_csv,
    net_to_csv,
)
from .plmap import (
    PLMap,
    identity_map,
    pl_metrics,
    plmap_from_json,
    plmap_to_json,
)
from .distortion import DistortionResult, greedy_distortion, pair_distortion
from .search import SearchResult, search_min_stretch
from .svgplot import net_svg, plmap_svg

__version__ = "0.1.0"
