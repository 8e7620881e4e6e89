"""Spectrogram-resize augmentation and pitch evaluation for speech audio.

The toolkit covers the full augmentation chain (waveform → log-mel →
vertical/horizontal resize → waveform), the F0-PCC prosody metric, and
the loss arithmetic a CVAE/GAN voice-conversion trainer needs.
"""

from .audio_io import Waveform, read_wav, resample, write_wav
from .errors import (
    ConfigMismatch,
    DegenerateVariance,
    DegenerateWindowSum,
    DimensionMismatch,
    EmptyCorpus,
    InputTooShort,
    InsufficientVoicedOverlap,
    IoFailure,
    MalformedContainer,
    NonFinite,
    SraugError,
    StageFailure,
    UnsupportedFormat,
    VocoderOutputMissing,
    VocoderProcessFailure,
)
from .pipeline import (
    AugmentManifest,
    PipelineConfig,
    augment_file,
    derive_seed,
    discover_wavs,
    run,
)
from .pitch_eval import F0Track, PitchConfig, f0_pcc, pearson, write_f0_csv, yin_f0
from .spectral import (
    ComplexSpectrogram,
    LinearSpectrogram,
    MelSpectrogram,
    SpectralConfig,
    hz_to_mel,
    istft,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    mel_to_linear,
    read_melf,
    stft,
    write_melf,
)
from .sr_ops import (
    HORIZONTAL,
    VERTICAL,
    RatioRange,
    ResizeSpec,
    horizontal_sr,
    resize_axis,
    sample_ratio,
    vertical_sr,
)
from .vc_losses import (
    DiagGaussian,
    FeatureSet,
    ScoreSet,
    feature_matching,
    generator_total,
    kl_diag_gaussian,
    lsgan_losses,
    recon_l1,
)
from .vocoder import (
    GriffinLimConfig,
    external_vocoder,
    griffin_lim,
    reconstruct_from_mel,
)

__version__ = "0.1.0"
