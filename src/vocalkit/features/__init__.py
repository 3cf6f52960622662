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

# the sets that reduce the clip's power spectrogram
_SPECTRAL_SETS = {"filterbank24": mel_filterbank, "mfcc13": mfcc, "plp13": plp}


def clip_vector(clip, set_id: str, clip_id: str = "") -> FeatureVector:
    """The clip's vector of one feature set; every set reads the clip's one
    cached power spectrogram (``clip.spectrogram``)."""
    if set_id == "gemaps_lite":
        return gemaps_lite(clip, clip_id)
    if set_id not in _SPECTRAL_SETS:
        raise FeatureError(f"unknown feature set {set_id!r}")
    return _SPECTRAL_SETS[set_id](clip.spectrogram, clip_id)


__all__ = [
    "FEATURE_SET_DIMS",
    "clip_vector",
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
