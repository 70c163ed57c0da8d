"""Voice anonymization toolkit: pitch-trajectory remodeling, formant shifting, evaluation."""

__version__ = "0.1.0"
