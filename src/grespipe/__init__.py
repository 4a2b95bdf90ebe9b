"""grespipe: a general-resource discovery pipeline.

Discovers GPU-style general resources from an emulated SLURM scheduler,
publishes them in a GLUE2-style XML document over an HTTP info endpoint,
parses them back into a human-readable report, and injects GRES requests
into generated batch-submission scripts via runtime-environment manifests.
Each module's ``__all__`` is its public API; import names from the modules.
"""

__version__ = "0.1.0"
