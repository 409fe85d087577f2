"""Decode-time late fusion of two autoregressive token predictors.

The primary predictor (an N-best-conditioned corrector standing in for a
large language model) and a secondary acoustic-channel predictor share
one vocabulary and one greedy decoding history; each step adds the
secondary's calibrated distribution to the primary's with a fixed weight
or with the weight sigmoid(entropy of the primary) - beta.

The wire names (`latefuse.wire` and the four below in `_WIRE_NAMES`) are
imported when first read, through the module `__getattr__` (PEP 562):
`import latefuse` then loads no socket, subprocess or selectors.
"""

import importlib

from .calibration import CalibrationReport, fit_temperature
from .core import (
    TokenSeq,
    Vocabulary,
    argmax_token,
    entropy,
    softmax_with_temperature,
)
from .corpus import (
    ChannelSpec,
    CorpusRecord,
    corrupt,
    generate_corpus,
    load_corpus,
    sample_references,
    save_corpus,
)
from .decoding import DecodeResult, beam_search, fused_greedy_decode, greedy_decode
from .fusion import (
    FusionConfig,
    FusionStep,
    uadf_weight,
)
from .metrics import (
    ScoreReport,
    oracle_compositional,
    oracle_nbest,
    wer,
    werr,
)
from .providers import (
    AcousticChannel,
    NgramCorrector,
    NgramModel,
    ProviderSpec,
    UtteranceContext,
    train_ngram_corrector,
)

__version__ = "0.1.0"

_WIRE_NAMES = ("ExternalProvider", "ProviderServer", "connect_external", "stdio_serve")


def __getattr__(name):
    if name == "wire" or name in _WIRE_NAMES:
        # not `from . import wire`: that asks this function for `wire` again
        wire = importlib.import_module(".wire", __name__)
        return wire if name == "wire" else getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "wire", *_WIRE_NAMES})
