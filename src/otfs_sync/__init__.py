"""OTFS synchronization: pilot design, timing and CFO estimation, experiments.

The package splits along the processing chain:

* :mod:`otfs_sync.modem`   delay-Doppler grid transforms and CP framing;
* :mod:`otfs_sync.pilot`   cyclic-prefixed pilot construction;
* :mod:`otfs_sync.channel` LTV channel synthesis, TO/CFO injection, noise;
* :mod:`otfs_sync.timing`  dual-domain timing-offset estimation;
* :mod:`otfs_sync.cfo`     coarse and BEM-based fine CFO estimation;
* :mod:`otfs_sync.harness` Monte-Carlo experiments, CSV/manifest IO;
* :mod:`otfs_sync.cli`     the ``otfs-sync`` command.
"""

__version__ = "0.1.0"

from .modem import OtfsParams, build_stream
from .pilot import PcpSpec, make_zc, build_frame
from .channel import (ChannelModel, ChannelRealization, eva_model,
                      single_tap_model, mean_delay, realize_channel,
                      apply_impairments)
from .timing import (TimingMetrics, ToEstimate, estimate_to, fold_offset,
                     metric_delay_iterative, metric_time_iterative)
from .cfo import (CfoEstimate, MlWorkspace, OpCounter, build_workspace,
                  coarse_cfo, fine_cfo, extract_pilot, matched_order, ml_cost)
from .harness import (ExperimentConfig, PointSummary, TrialResult,
                      build_point, load_config, parse_config, run_single,
                      run_snapshot, run_sweep, run_trial)

__all__ = [
    "OtfsParams", "build_stream",
    "PcpSpec", "make_zc", "build_frame",
    "ChannelModel", "ChannelRealization", "eva_model", "single_tap_model",
    "mean_delay", "realize_channel", "apply_impairments",
    "TimingMetrics", "ToEstimate", "estimate_to", "fold_offset",
    "metric_delay_iterative", "metric_time_iterative",
    "CfoEstimate", "MlWorkspace", "OpCounter", "build_workspace",
    "coarse_cfo", "fine_cfo", "extract_pilot", "matched_order", "ml_cost",
    "ExperimentConfig", "PointSummary", "TrialResult", "build_point",
    "load_config", "parse_config", "run_single", "run_snapshot",
    "run_sweep", "run_trial",
    "__version__",
]
