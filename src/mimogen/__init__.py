"""mimogen: deterministic geometric mmWave/massive-MIMO channel dataset
generator with an image-method ray tracer and beam-prediction exports."""

__version__ = "0.1.0"

from .scene import (  # noqa: F401
    Building,
    BaseStation,
    Scene,
    SceneConfigError,
    UserGrid,
    build_o1_scene,
    enumerate_users,
    users_in_row_range,
)
from .tracer import (  # noqa: F401
    PathList,
    PathRecord,
    mirror_point,
    path_phase,
    path_power,
    trace_paths,
)
from .params import ParamSet, parse_params, subcarrier_set  # noqa: F401
from .channel import (  # noqa: F401
    ChannelMatrix,
    array_response,
    channel_matrix,
)
from .dataset import Dataset, build_dataset, export_dataset, get_channel, get_location  # noqa: F401
from .beams import (  # noqa: F401
    BeamEvalConfig,
    Codebook,
    achievable_rate,
    best_beam,
    build_ml_dataset,
    dft_codebook,
    omni_feature,
)
