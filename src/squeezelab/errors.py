"""Exception types shared across the package.

Every error raised by squeezelab derives from SqueezeLabError so callers can
catch the whole family at the CLI boundary while tests assert specific types.
"""
from __future__ import annotations


class SqueezeLabError(Exception):
    """Base class for all squeezelab errors."""


class InvalidLogits(SqueezeLabError):
    """A logit vector contained NaN or infinite entries."""


class PrefixExhausted(SqueezeLabError):
    """A conditional distribution was requested at a prefix of length max_len."""


class InvalidToken(SqueezeLabError):
    """A token id fell outside the vocabulary."""


class NumericOverflow(SqueezeLabError):
    """A value left its range: a logit after an update, a KL ratio or an int64 prefix id."""


class CheckpointCorrupt(SqueezeLabError):
    """A checkpoint file failed validation.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SuiteCorrupt(SqueezeLabError):
    """A suite file failed validation; carries the 0-based index of the failing entry."""

    def __init__(self, message: str, entry: int | None = None):
        if entry is not None:
            message = f"entry {entry}: {message}"
        super().__init__(message)
        self.entry = entry


class NotASqueezeSetting(SqueezeLabError):
    """Squeeze verification preconditions violated (eta >= 0 or m is the argmax)."""


class SpaceTooLarge(SqueezeLabError):
    """An exact enumeration would exceed the configured bound."""


class GenerationFailed(SqueezeLabError):
    """Task generation could not satisfy the family constraints."""


class EmptyTrajectory(SqueezeLabError):
    """A sequence-level ratio was requested for a zero-length trajectory."""


class OneSidedGroup(SqueezeLabError):
    """A contrastive decomposition needs both positive and negative rollouts."""


class NoRollouts(SqueezeLabError):
    """No rollouts were sampled for the requested prompt."""


class KExceedsN(SqueezeLabError):
    """pass@k was requested with k larger than the sample count n."""


class InsufficientSamples(SqueezeLabError):
    """A pairwise statistic was requested with fewer than two trajectories."""


class MissingArtifacts(SqueezeLabError):
    """A run directory lacks the files a comparison needs, or one is unreadable."""


class ConfigError(SqueezeLabError):
    """An experiment config failed validation.

    The message names the offending key with its full dotted path.
    """
