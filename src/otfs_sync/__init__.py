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
