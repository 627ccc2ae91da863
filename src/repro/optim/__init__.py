"""Optimizers (substrate S3)."""

from .adamw import AdamW
from .optimizer import Optimizer

__all__ = ["AdamW", "Optimizer"]
