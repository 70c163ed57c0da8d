"""WAV I/O, resampling, and framing utilities."""

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

from voxmask import audio
from voxmask.audio import (
    AudioFormatError,
    UnsupportedFormatError,
    Waveform,
    frame_signal,
    num_frames,
    read_wav,
    resample,
    write_wav,
)

from conftest import make_tone, make_noise, write_wide_pcm


class TestWaveform:
    def test_rejects_nan_samples(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(10), 0)

    def test_duration(self):
        w = Waveform(np.zeros(8000), 16000)
        assert w.duration == pytest.approx(0.5)


class TestReadWrite:
    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        w = Waveform(rng.uniform(-1, 1, 1234).astype(np.float32).astype(np.float64), 22050)
        p = tmp_path / "x.wav"
        write_wav(p, w, encoding="float32")
        back = read_wav(p)
        assert back.sample_rate == 22050
        np.testing.assert_array_equal(back.samples, w.samples)

    def test_pcm16_round_trip_within_quantum(self, tmp_path):
        w = Waveform(np.full(100, 0.25), 16000)
        p = tmp_path / "q.wav"
        write_wav(p, w, encoding="pcm16")
        back = read_wav(p)
        assert np.max(np.abs(back.samples - 0.25)) <= 1.0 / 32768

    def test_pcm16_full_scale_normalization(self, tmp_path):
        # int 32767 must map to 32767/32768 on read
        w = Waveform(np.array([32767.0 / 32768.0]), 8000)
        p = tmp_path / "fs.wav"
        write_wav(p, w, encoding="pcm16")
        back = read_wav(p)
        assert back.samples[0] == pytest.approx(32767.0 / 32768.0, abs=1e-12)

    def test_silence_round_trip(self, tmp_path):
        w = Waveform(np.zeros(44100), 44100)
        p = tmp_path / "s.wav"
        write_wav(p, w)
        back = read_wav(p)
        assert back.sample_rate == 44100
        assert back.samples.size == 44100
        assert np.all(back.samples == 0.0)

    def test_clipping_reported_not_wrapped(self, tmp_path):
        w = Waveform(np.array([1.5, -2.0, 0.5]), 16000)
        p = tmp_path / "c.wav"
        write_wav(p, w, encoding="pcm16")
        back = read_wav(p)
        assert back.samples[0] == pytest.approx(32767.0 / 32768.0, abs=1e-9)
        assert back.samples[1] == pytest.approx(-1.0, abs=1e-9)

    def test_stereo_averaged_to_mono(self, tmp_path):
        import struct
        import wave

        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            frames = b"".join(struct.pack("<hh", 16384, -16384) for _ in range(50))
            fh.writeframes(frames)
        back = read_wav(p)
        assert back.samples.size == 50
        np.testing.assert_allclose(back.samples, 0.0, atol=1e-12)

    def test_malformed_file_raises_format_error(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"this is not RIFF data at all....")
        with pytest.raises(AudioFormatError):
            read_wav(p)

    @pytest.mark.parametrize("width", [3, 4], ids=["pcm24", "pcm32"])
    def test_pcm24_and_pcm32_read_as_the_pcm16_they_hold(self, width, tmp_path):
        rng = np.random.default_rng(5)
        pcm16 = np.concatenate([[-32768, -1, 0, 1, 32767], rng.integers(-32768, 32768, 995)]).astype(np.int16)
        narrow, wide = tmp_path / "16.wav", tmp_path / f"{8 * width}.wav"
        wavfile.write(narrow, 22050, pcm16)
        write_wide_pcm(wide, pcm16, 22050, width)
        back = read_wav(wide)
        assert back.sample_rate == 22050
        assert np.array_equal(back.samples, read_wav(narrow).samples)

    def test_pcm8_is_unsupported_and_the_error_names_what_reads(self, tmp_path):
        p = tmp_path / "u8.wav"
        wavfile.write(p, 16000, np.full(10, 128, dtype=np.uint8))
        with pytest.raises(UnsupportedFormatError, match="expected PCM-16, PCM-24, PCM-32 or IEEE float-32"):
            read_wav(p)

    def test_unsupported_encoding_raises(self, tmp_path):
        w = Waveform(np.zeros(10), 16000)
        with pytest.raises(ValueError):
            write_wav(tmp_path / "u.wav", w, encoding="mulaw")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises((FileNotFoundError, OSError)):
            read_wav(tmp_path / "absent.wav")


class TestResample:
    @pytest.mark.parametrize("rate, target", [(44100, 16000), (16000, 44100), (22050, 16000), (48000, 16000)])
    def test_cached_taps_give_the_freshly_designed_filters_bits(self, rate, target):
        w = make_noise(0.3, fs=rate, seed=rate)
        up, down = target // np.gcd(rate, target), rate // np.gcd(rate, target)
        taps = firwin(64 * max(up, down) + 1, 0.95 / max(up, down), window=("kaiser", 8.0))
        want = resample_poly(w.samples, up, down, window=taps)
        for _ in range(2):  # the second call reads the cache
            assert np.array_equal(resample(w, target).samples, want)
        cached = audio._resample_taps(max(up, down))
        assert cached is audio._resample_taps(max(up, down)) and np.array_equal(cached, taps)
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1.0

    def test_identity_at_same_rate(self):
        w = make_noise(0.2, fs=16000, seed=1)
        out = resample(w, 16000)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_duration_preserved(self):
        w = make_tone(440, 1.0, fs=44100)
        out = resample(w, 16000)
        assert abs(out.samples.size / 16000 - 1.0) <= 1.0 / 16000

    def test_tone_survives_44100_to_16000(self):
        # spectral peak of a 1 kHz sine must stay at 1 kHz within 1 Hz
        w = make_tone(1000, 2.0, fs=44100)
        out = resample(w, 16000)
        n = out.samples.size
        spec = np.abs(np.fft.rfft(out.samples * np.hanning(n)))
        peak_hz = np.argmax(spec) * 16000 / n
        assert abs(peak_hz - 1000.0) < 1.0

    def test_antialiasing_on_white_noise(self):
        # energy above the target Nyquist must not fold back into the output:
        # high-pass-only noise should come out of the resampler almost silent
        rng = np.random.default_rng(7)
        n = 2 * 44100
        x = rng.standard_normal(n)
        spec = np.fft.rfft(x)
        freqs = np.fft.rfftfreq(n, 1 / 44100)
        lo = spec.copy()
        lo[freqs >= 4000] = 0.0  # passband reference: energy well below 5 kHz
        hi = spec.copy()
        hi[freqs <= 5500] = 0.0  # aliasing probe: energy only above Nyquist
        taper = np.ones(n)  # fade edges so boundary transients don't dominate
        ramp = np.hanning(2 * 2205)
        taper[:2205], taper[-2205:] = ramp[:2205], ramp[2205:]
        ref = resample(Waveform(np.fft.irfft(lo, n) * taper, 44100), 10000)
        leak = resample(Waveform(np.fft.irfft(hi, n) * taper, 44100), 10000)
        ref_rms = np.sqrt(np.mean(ref.samples**2))
        leak_rms = np.sqrt(np.mean(leak.samples**2))
        assert 20 * np.log10(leak_rms / ref_rms) < -60

    def test_linearity(self):
        w = make_noise(0.5, fs=44100, seed=11)
        a = 3.7
        left = resample(Waveform(a * w.samples, 44100), 16000).samples
        right = a * resample(w, 16000).samples
        rms = np.sqrt(np.mean((left - right) ** 2))
        assert rms < 1e-6

    def test_invalid_rate_rejected(self):
        w = make_tone(100, 0.1)
        with pytest.raises(ValueError):
            resample(w, 0)


class TestFraming:
    def test_num_frames_matches_frame_signal(self):
        x = np.arange(1000.0)
        for fl, hp in [(100, 50), (256, 128), (400, 160)]:
            frames = frame_signal(x, fl, hp)
            assert frames.shape == (num_frames(x.size, fl, hp), fl)

    def test_frame_contents(self):
        x = np.arange(10.0)
        frames = frame_signal(x, 4, 2)
        np.testing.assert_array_equal(frames[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(frames[1], [2, 3, 4, 5])

    def test_short_signal_yields_no_frames(self):
        assert num_frames(3, 10, 5) == 0
