"""Extract all four acoustic feature sets from one synthetic vocalization.

Shows the dimensionality of each set, a few raw values, and the gain
invariance of the handcrafted descriptors: every non-loudness dimension is
unchanged when the waveform is scaled.
"""

import tempfile
from pathlib import Path

import numpy as np

from vocalkit.audio import AudioClip, load_audio
from vocalkit.features import GEMAPS_LITE_NAMES, LEVEL_DEPENDENT_DIMS, clip_vector
from vocalkit.manifest import load_manifest
from vocalkit.synth import SynthGroup, SynthSpec, generate


def main():
    root = Path(tempfile.mkdtemp(prefix="vocalkit_demo_"))
    spec = SynthSpec(
        n_clips_per_group=1,
        groups=(SynthGroup("En", planted_f0_hz=450.0, planted_am_rate_hz=4.0),),
        seed=0,
        noise_snr_db=40.0,
        n_scenes=1,
        hosts_per_dog=0,
    )
    manifest_path, _ = generate(spec, root)
    rec = load_manifest(manifest_path).by_kind("dog_vocal")[0]
    clip = load_audio(rec.audio_path, id=rec.id)

    for set_id in ("filterbank24", "mfcc13", "plp13", "gemaps_lite"):
        vec = clip_vector(clip, set_id, rec.id)
        head = ", ".join(f"{v:.3f}" for v in vec.values[:4])
        print(f"{set_id:12s} d={len(vec.values):2d}  first values: {head}, ...")

    vec = clip_vector(clip, "gemaps_lite", rec.id)
    louder = AudioClip(clip.samples * 4.0, clip.sample_rate, id=rec.id)
    vec4 = clip_vector(louder, "gemaps_lite", rec.id)
    print("\ngain test (waveform x4):")
    for name, a, b in zip(GEMAPS_LITE_NAMES, vec.values, vec4.values):
        if name in LEVEL_DEPENDENT_DIMS:
            print(f"  {name:42s} {a:9.3f} -> {b:9.3f}  (level-dependent)")
    moved = [
        name
        for name, a, b in zip(GEMAPS_LITE_NAMES, vec.values, vec4.values)
        if name not in LEVEL_DEPENDENT_DIMS
        and abs(b - a) > 1e-6 * max(1.0, abs(a))
    ]
    print(f"  non-loudness dimensions changed: {moved or 'none'}")


if __name__ == "__main__":
    main()
