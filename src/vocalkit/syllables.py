"""Syllable-like-unit detection via a driven damped harmonic oscillator.

The amplitude envelope is log-compressed and fed as the drive of a
second-order system x'' + 2*zeta*omega*x' + omega^2*x = drive(t); peaks of
the response mark vocal nuclei, and nuclei per second define speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.signal import find_peaks

from .artifacts import write_csv, write_jsonl
from .audio import AudioClip, amplitude_envelope, EnvelopeSeq

LOG_COMPRESSION_GAIN = 100.0


class SyllableError(Exception):
    pass


@dataclass(frozen=True)
class OscillatorConfig:
    natural_freq_hz: float = 5.0
    damping_ratio: float = 0.3
    envelope_rate_hz: float = 100.0
    min_peak_gap_s: float = 0.08
    peak_floor_rel: float = 0.12

    def __post_init__(self):
        if self.natural_freq_hz <= 0:
            raise SyllableError("natural_freq_hz must be positive")
        if not (0.0 < self.damping_ratio < 1.0):
            raise SyllableError("damping_ratio must lie in (0, 1)")
        if self.min_peak_gap_s <= 0:
            raise SyllableError("min_peak_gap_s must be positive")
        if not (0.0 < self.peak_floor_rel < 1.0):
            raise SyllableError("peak_floor_rel must lie in (0, 1)")


@dataclass(frozen=True)
class SyllableUnits:
    nuclei_times_s: np.ndarray
    clip_duration_s: float
    rate_per_s: float


def oscillate_raw(drive: np.ndarray, rate_hz: float, config: OscillatorConfig) -> np.ndarray:
    """Linear response of the oscillator to a sampled drive (zero-order hold).

    Uses the exact discretization of the continuous-time system, so the step
    response matches the closed-form solution at the sample instants.
    """
    omega = 2.0 * np.pi * config.natural_freq_hz
    zeta = config.damping_ratio
    if rate_hz < 4.0 * config.natural_freq_hz:
        raise SyllableError(
            f"envelope rate {rate_hz} Hz below 4x natural frequency"
        )
    dt = 1.0 / rate_hz
    # augmented system [x, v, u]; u held constant over each step
    M = np.array(
        [
            [0.0, 1.0, 0.0],
            [-omega ** 2, -2.0 * zeta * omega, 1.0],
            [0.0, 0.0, 0.0],
        ]
    )
    Md = expm(M * dt)
    Ad = Md[:2, :2]
    Bd = Md[:2, 2]
    state = np.zeros(2)
    out = np.empty(len(drive))
    for i, u in enumerate(drive):
        out[i] = state[0]
        state = Ad @ state + Bd * u
    return out


def oscillate(env: EnvelopeSeq, config: OscillatorConfig | None = None) -> np.ndarray:
    """Oscillator response to the log-compressed envelope."""
    config = config or OscillatorConfig()
    drive = np.log1p(LOG_COMPRESSION_GAIN * np.maximum(env.values, 0.0))
    return oscillate_raw(drive, env.rate_hz, config)


def pick_nuclei(
    osc: np.ndarray,
    rate_hz: float,
    config: OscillatorConfig | None = None,
    clip_duration_s: float | None = None,
) -> SyllableUnits:
    """Local maxima of the oscillator response above a relative floor."""
    config = config or OscillatorConfig()
    if len(osc) == 0:
        raise SyllableError("empty oscillator sequence")
    duration = clip_duration_s if clip_duration_s is not None else len(osc) / rate_hz
    peak = osc.max()
    if peak <= 0:
        times = np.empty(0)
    else:
        idx, _ = find_peaks(
            osc,
            height=config.peak_floor_rel * peak,
            distance=max(1, int(round(config.min_peak_gap_s * rate_hz))),
        )
        times = idx / rate_hz
    return SyllableUnits(
        nuclei_times_s=times,
        clip_duration_s=duration,
        rate_per_s=len(times) / duration,
    )


def detect_syllables(clip: AudioClip, config: OscillatorConfig | None = None) -> SyllableUnits:
    """Envelope -> oscillator -> nuclei for one clip."""
    config = config or OscillatorConfig()
    env = amplitude_envelope(clip, config.envelope_rate_hz)
    osc = oscillate(env, config)
    return pick_nuclei(osc, env.rate_hz, config, clip_duration_s=clip.duration_s)


def speed_report(rates_by_group: dict) -> list[dict]:
    """Per-group rate statistics, one row per group in sorted key order.

    rates_by_group maps a group label to a list of per-clip rates; an empty
    group yields a marked row rather than an error.
    """
    rows = []
    for group in sorted(rates_by_group):
        rates = np.asarray(rates_by_group[group], dtype=float)
        if rates.size == 0:
            rows.append(
                {"group": group, "n": 0, "mean_rate": "", "median_rate": "",
                 "stddev": "", "empty": True}
            )
            continue
        rows.append(
            {
                "group": group,
                "n": int(rates.size),
                "mean_rate": float(np.mean(rates)),
                "median_rate": float(np.median(rates)),
                "stddev": float(np.std(rates)),
                "empty": False,
            }
        )
    return rows


def write_speed_csv(path, rows: list[dict]) -> None:
    def cells(row):
        if row["empty"]:
            return [row["group"], 0, "", "", ""]
        stats = (row["mean_rate"], row["median_rate"], row["stddev"])
        return [row["group"], row["n"], *(f"{x:.3f}" for x in stats)]

    write_csv(path, ["group", "n", "mean_rate", "median_rate", "stddev"], map(cells, rows))


def write_nuclei_jsonl(path, units_by_clip: dict) -> None:
    """Per-clip nuclei times as JSON lines for external plotting."""
    write_jsonl(
        path,
        (
            {
                "clip_id": clip_id,
                "nuclei_times_s": [round(float(t), 6) for t in u.nuclei_times_s],
                "clip_duration_s": round(float(u.clip_duration_s), 6),
                "rate_per_s": round(float(u.rate_per_s), 6),
            }
            for clip_id, u in sorted(units_by_clip.items())
        ),
    )
