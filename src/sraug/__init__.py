"""Spectrogram-resize augmentation and pitch evaluation for speech audio.

The toolkit covers the full augmentation chain (waveform → log-mel →
vertical/horizontal resize → waveform), the F0-PCC prosody metric, and
the loss arithmetic a CVAE/GAN voice-conversion trainer needs.
"""

__version__ = "0.1.0"
