"""Scheme registry: FTL scheme name -> FTL class.

The paper evaluates the first three; ``delta`` (Zhang et al., FAST'16)
is the related-work scheme IPU improves on, included as an extra
comparator.

The registry stays a module-level ``dict`` literal of class names: the
K lint rules follow ``SCHEMES[cfg.scheme](...)`` dispatch by resolving
the from-import of ``SCHEMES`` to this literal, which is how they see
the FTL classes a cached cell runs.
"""

from __future__ import annotations

from .core.ipu_ftl import IPUFTL
from .ftl.baseline import BaselineFTL
from .ftl.delta import DeltaFTL
from .ftl.mga import MGAFTL

#: Scheme registry used by experiments and the CLI.
SCHEMES = {
    "baseline": BaselineFTL,
    "mga": MGAFTL,
    "ipu": IPUFTL,
    "delta": DeltaFTL,
}
