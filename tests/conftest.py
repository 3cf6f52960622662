import concurrent.futures
import os

import numpy as np
import pytest

from vocalkit.audio import AudioClip

SR = 16000


def tone(freq_hz, duration_s=1.0, amplitude=0.5, sr=SR, phase=0.0):
    t = np.arange(int(round(duration_s * sr))) / sr
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), sr)


def harmonic_tone(f0_hz, duration_s=1.0, amplitude=0.3, sr=SR, fmax_hz=5000.0):
    t = np.arange(int(round(duration_s * sr))) / sr
    sig = np.zeros_like(t)
    h = 1
    while h * f0_hz <= fmax_hz:
        sig += np.sin(2 * np.pi * h * f0_hz * t) / (1.0 + (h * f0_hz / 800.0) ** 2)
        h += 1
    sig *= amplitude / np.max(np.abs(sig))
    return AudioClip(sig, sr)


def noise_clip(duration_s=1.0, amplitude=0.3, sr=SR, seed=0):
    rng = np.random.default_rng(seed)
    return AudioClip(amplitude * rng.standard_normal(int(round(duration_s * sr))), sr)


def silence(duration_s=1.0, sr=SR):
    return AudioClip(np.zeros(int(round(duration_s * sr))) , sr)


def usable_cpus(monkeypatch, n):
    """Make the process's CPU affinity mask hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_pools(monkeypatch):
    """Record the worker count of every pool vocalkit creates."""
    created = []
    real = concurrent.futures.ProcessPoolExecutor

    def pool(max_workers, **kwargs):
        created.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return created


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
