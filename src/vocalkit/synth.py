"""Synthetic corpus with planted, known ground truth.

Clips are harmonic pulse trains: a harmonic-rich carrier at a planted
fundamental, gated on and off at a planted modulation rate, with additive
noise at a chosen SNR.  Matching synthetic "host speech" clips carry
features correlated with their dog clip at a planted strength, so every
downstream report value can be predicted from the sidecar alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .artifacts import write_json, write_jsonl
from .audio import AudioClip, save_audio
from .features.pitch import F0_REF_HZ
from .pairing import ACTIVITY_DIM, SCENES

DEFAULT_SNR_DB = 25.0
BURST_EDGE_S = 0.010
CLIP_PAD_S = 0.05


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class SynthGroup:
    lang_env: str
    planted_f0_hz: float
    planted_am_rate_hz: float
    planted_loudness_db: float = -25.0

    def __post_init__(self):
        if min(self.planted_f0_hz, self.planted_am_rate_hz) <= 0:
            raise SynthError("planted parameters must be positive")


@dataclass(frozen=True)
class SynthSpec:
    n_clips_per_group: int
    groups: tuple
    seed: int = 0
    noise_snr_db: float = DEFAULT_SNR_DB
    clip_duration_s: float = 2.0
    sample_rate: int = 16000
    host_corr: float = 0.6
    f0_jitter_semitones: float = 1.0
    loudness_jitter_db: float = 3.0
    rate_jitter_frac: float = 0.05
    n_scenes: int = 4
    hosts_per_dog: int = 1

    def __post_init__(self):
        if not self.groups:
            raise SynthError("at least one group required")
        if self.n_clips_per_group < 1:
            raise SynthError("n_clips_per_group must be >= 1")


def _gate(t: np.ndarray, rate_hz: float, duration_s: float):
    """On/off gating at rate_hz with raised-cosine edges.

    Returns (gate array, list of (on, off) burst boundaries in seconds).
    """
    period = 1.0 / rate_hz
    burst_len = 0.5 * period
    gate = np.zeros_like(t)
    bounds = []
    start = CLIP_PAD_S
    while start + burst_len <= duration_s - CLIP_PAD_S + 1e-9:
        on, off = start, start + burst_len
        # outside [on, off] the burst's rise or fall is 0, so its product is
        # 0.0 there and leaves the gate as it was: evaluate it on [on, off] only
        i0, i1 = np.searchsorted(t, on, "left"), np.searchsorted(t, off, "right")
        rise = np.clip((t[i0:i1] - on) / BURST_EDGE_S, 0.0, 1.0)
        fall = np.clip((off - t[i0:i1]) / BURST_EDGE_S, 0.0, 1.0)
        burst = 0.5 * (1 - np.cos(np.pi * rise)) * 0.5 * (1 - np.cos(np.pi * fall))
        gate[i0:i1] = np.maximum(gate[i0:i1], burst)
        bounds.append((on, off))
        start += period
    return gate, bounds


def _harmonic_carrier(t: np.ndarray, f0_hz: float, fmax_hz: float = 5000.0) -> np.ndarray:
    """Harmonic stack under a fixed spectral envelope (bark-like timbre)."""
    carrier = np.zeros_like(t)
    h = 1
    while h * f0_hz <= fmax_hz:
        amp = 1.0 / (1.0 + (h * f0_hz / 800.0) ** 2)
        carrier += amp * np.sin(2.0 * np.pi * h * f0_hz * t)
        h += 1
    return carrier


def synth_vocal_clip(
    sr: int,
    duration_s: float,
    f0_hz: float,
    am_rate_hz: float,
    loudness_db: float,
    snr_db: float,
    rng: np.random.Generator,
):
    """One pulse-train clip; returns (AudioClip, burst boundary list)."""
    t = np.arange(int(round(duration_s * sr))) / sr
    carrier = _harmonic_carrier(t, f0_hz)
    gate, bounds = _gate(t, am_rate_hz, duration_s)
    sig = carrier * gate
    burst_rms = np.sqrt(np.mean(sig[gate > 0.5] ** 2)) if np.any(gate > 0.5) else 1.0
    sig *= 10.0 ** (loudness_db / 20.0) / max(burst_rms, 1e-12)
    p_signal = np.mean(sig ** 2)
    noise_rms = np.sqrt(p_signal / 10.0 ** (snr_db / 10.0))
    sig = sig + rng.normal(0.0, noise_rms, size=len(t))
    return AudioClip(sig, sr), bounds


def _activity(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noise = rng.normal(0.0, 1.0, ACTIVITY_DIM)
    noise /= np.linalg.norm(noise)
    v = base + 0.02 * noise
    return np.round(v / np.linalg.norm(v), 5)


def generate(spec: SynthSpec, out_dir):
    """Write WAV clips, a manifest and a ground-truth sidecar.

    Returns (manifest_path, sidecar_path).  Deterministic for a fixed seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    audio_dir = os.path.join(out_dir, "audio")
    os.makedirs(audio_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    scenes = SCENES[: spec.n_scenes]
    bases = {}
    for scene in scenes:
        b = rng.normal(0.0, 1.0, ACTIVITY_DIM)
        bases[scene] = b / np.linalg.norm(b)

    records = []
    sidecar = {}
    host_base_st = 12.0 * np.log2(165.0 / F0_REF_HZ)  # ~165 Hz speech-like pitch
    rho = spec.host_corr
    for g_idx, group in enumerate(spec.groups):
        for i in range(spec.n_clips_per_group):
            clip_id = f"dog_{group.lang_env}_{g_idx}_{i:04d}"
            video_id = f"vid_{group.lang_env}_{g_idx}_{i:04d}"
            z_f0 = rng.normal()
            z_loud = rng.normal()
            f0_st = 12.0 * np.log2(group.planted_f0_hz / F0_REF_HZ) + spec.f0_jitter_semitones * z_f0
            f0_hz = F0_REF_HZ * 2.0 ** (f0_st / 12.0)
            loud_db = group.planted_loudness_db + spec.loudness_jitter_db * z_loud
            rate = group.planted_am_rate_hz * (1.0 + spec.rate_jitter_frac * rng.normal())
            rate = max(0.5, rate)
            clip, bounds = synth_vocal_clip(
                spec.sample_rate, spec.clip_duration_s, f0_hz, rate, loud_db,
                spec.noise_snr_db, rng,
            )
            wav_rel = os.path.join("audio", clip_id + ".wav")
            save_audio(os.path.join(out_dir, wav_rel), clip)
            scene = scenes[i % len(scenes)]
            records.append(
                {
                    "id": clip_id,
                    "kind": "dog_vocal",
                    "lang_env": group.lang_env,
                    "audio_path": wav_rel,
                    "start_s": 0.0,
                    "end_s": spec.clip_duration_s,
                    "context": {
                        "scene": scene,
                        "location": "lawn",
                        "activity": _activity(bases[scene], rng).tolist(),
                    },
                    "source_video_id": video_id,
                }
            )
            sidecar[clip_id] = {
                "kind": "dog_vocal",
                "lang_env": group.lang_env,
                "f0_hz": round(float(f0_hz), 4),
                "f0_semitone": round(float(f0_st), 4),
                "am_rate_hz": round(float(rate), 4),
                "loudness_db": round(float(loud_db), 4),
                "word_boundaries_s": [[round(a, 4), round(b, 4)] for a, b in bounds],
            }
            # correlated host speech from the same video
            for h in range(spec.hosts_per_dog):
                host_id = f"host_{group.lang_env}_{g_idx}_{i:04d}_{h}"
                eps_f0, eps_loud = rng.normal(), rng.normal()
                h_st = host_base_st + rho * z_f0 + np.sqrt(1 - rho ** 2) * eps_f0
                h_loud = -25.0 + spec.loudness_jitter_db * (
                    rho * z_loud + np.sqrt(1 - rho ** 2) * eps_loud
                )
                h_rate = 4.0 if group.lang_env == "En" else 6.0
                h_f0 = F0_REF_HZ * 2.0 ** (h_st / 12.0)
                host_clip, host_bounds = synth_vocal_clip(
                    spec.sample_rate, spec.clip_duration_s, h_f0, h_rate, h_loud,
                    spec.noise_snr_db, rng,
                )
                host_rel = os.path.join("audio", host_id + ".wav")
                save_audio(os.path.join(out_dir, host_rel), host_clip)
                records.append(
                    {
                        "id": host_id,
                        "kind": "host_speech",
                        "lang_env": group.lang_env,
                        "audio_path": host_rel,
                        "start_s": 0.0,
                        "end_s": spec.clip_duration_s,
                        "source_video_id": video_id,
                    }
                )
                sidecar[host_id] = {
                    "kind": "host_speech",
                    "lang_env": group.lang_env,
                    "f0_hz": round(float(h_f0), 4),
                    "f0_semitone": round(float(h_st), 4),
                    "am_rate_hz": h_rate,
                    "loudness_db": round(float(h_loud), 4),
                    "word_boundaries_s": [[round(a, 4), round(b, 4)] for a, b in host_bounds],
                }

    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    header = {"version": 1, "declared_locations": ["lawn"], "defaults": {}}
    write_jsonl(manifest_path, [header, *records])
    sidecar_path = os.path.join(out_dir, "ground_truth.json")
    write_json(sidecar_path, sidecar)
    return manifest_path, sidecar_path
