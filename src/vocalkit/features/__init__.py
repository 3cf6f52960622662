from .vector import FEATURE_SET_DIMS, FeatureError, FeatureVector, compare_feature_set
from .spectral import (
    log_mel_frames,
    mel_filterbank,
    mfcc,
    plp,
    plp_models,
)
from .pitch import (
    LoudnessContour,
    PitchContour,
    f0_contour,
    hz_to_semitone,
    loudness_contour,
)
from .gemaps import GEMAPS_LITE_NAMES, LEVEL_DEPENDENT_DIMS, gemaps_lite
from .store import read_feature_csv, write_feature_csv

__all__ = [
    "FEATURE_SET_DIMS",
    "FeatureError",
    "FeatureVector",
    "compare_feature_set",
    "log_mel_frames",
    "mel_filterbank",
    "mfcc",
    "plp",
    "plp_models",
    "LoudnessContour",
    "PitchContour",
    "f0_contour",
    "hz_to_semitone",
    "loudness_contour",
    "GEMAPS_LITE_NAMES",
    "LEVEL_DEPENDENT_DIMS",
    "gemaps_lite",
    "read_feature_csv",
    "write_feature_csv",
]
