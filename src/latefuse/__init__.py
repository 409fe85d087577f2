"""Decode-time late fusion of two autoregressive token predictors.

The primary predictor (an N-best-conditioned corrector standing in for a
large language model) and a secondary acoustic-channel predictor share
one vocabulary and one greedy decoding history; each step adds the
secondary's calibrated distribution to the primary's with a fixed weight
or with the weight sigmoid(entropy of the primary) - beta.
"""

from .calibration import (
    CalibrationReport,
    fit_temperature,
    mean_confidence,
    reliability_bins,
    teacher_forced_trace,
)
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
from .wire import ExternalProvider, ProviderServer, connect_external, stdio_serve

__version__ = "0.1.0"
