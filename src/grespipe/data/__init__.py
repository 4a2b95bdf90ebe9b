"""Sample inputs shipped with the package: the emulated cluster fixture, a
runtime-environment manifest, a job description and a site configuration.
"""

from pathlib import Path

_ROOT = Path(__file__).resolve().parent

KEBNEKAISE_FIXTURE = _ROOT / "kebnekaise.fixture"
HELLO_XRSL = _ROOT / "hello.xrsl"
SITE_CONF = _ROOT / "site.conf"
RTE_DIR = _ROOT  # contains KGPU6.rte
