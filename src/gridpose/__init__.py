"""Multi-view multi-person 3D pose estimation on voxel grids with a
sparse Sinkhorn-attention transformer, plus the tooling to verify it:
synthetic scenes, a minimal reverse-mode autodiff engine, evaluation
metrics, and a benchmark for the sparse attention's cost."""

from .attention import (
    AttentionConfig,
    MatchedBins,
    ScoreCounter,
    attention_sublayer,
    bin_means,
    correlation_matrix,
    dense_attention,
    embed_volume,
    encoder_forward,
    encoder_layer_forward,
    feed_forward,
    init_encoder_layer,
    init_encoder_weights,
    layer_norm,
    reorder_bins,
    sinkhorn_normalize,
    windowed_attention,
)
from .autodiff import (
    Adam,
    Tensor,
    as_tensor,
    concat,
    finite_diff_check,
    sgd_step,
    zero_grads,
)
from .bench import bench_attention, write_bench_csv
from .checks import run_checks
from .config import (
    RunConfig,
    SceneConfig,
    load_json_config,
    run_config_from_json,
    run_config_to_json,
    scene_config_from_json,
    scene_config_to_json,
)
from .conv import (
    Conv3dLayer,
    conv3d_forward,
    init_conv3d,
    init_residual_block,
    residual_forward,
)
from .errors import ConfigError, NotDifferentiablePathError, NumericError
from .geometry import (
    CameraCalib,
    Heatmap,
    aggregate_feature_volume,
    cameras_to_json,
    load_cameras_json,
    project_point,
    sample_heatmap,
)
from .grid import (
    GridSpec,
    flat_index,
    flatten_volume,
    merge_bins,
    partition_bins,
    unflatten_volume,
)
from .metrics import (
    EvalConfig,
    evaluate_frames,
    match_poses,
    pose_error,
)
from .model import (
    init_model_from_config,
    load_model,
    model_forward,
    save_model,
)
from .pipeline import (
    coarse_center_proposal,
    propose_centers,
    run_inference,
    train_toy,
    write_loss_csv,
)
from .posehead import (
    Pose3D,
    fuse_and_head,
    integral_regression,
    poses_from_json,
    poses_to_json,
    regress_pose,
    save_poses_json,
)
from .synth import (
    JOINT_NAMES,
    camera_ring,
    default_skeleton,
    load_scene,
    render_heatmaps,
    sample_pose,
    save_scene,
    synth_scene,
)
from .tensorio import load_tensor, load_tensor_set, save_tensor, save_tensor_set

__version__ = "0.1.0"
