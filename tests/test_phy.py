"""PHY layer tests: OAQFM, OOK, framing, BER."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.antennas.dual_port_fsa import TonePair
from repro.dsp.fftutils import windowed_fft
from repro.errors import ConfigurationError, DecodingError, ProtocolError
from repro.phy.ber import (
    measure_ber,
    ook_matched_filter_ber,
    ook_noncoherent_ber,
    q_function,
    snr_for_target_ber,
)
from repro.phy.framing import (
    SYNC_WORD_BITS,
    bits_to_bytes,
    bytes_to_bits,
    crc16_ccitt,
    decode_frame,
    encode_frame,
    find_sync,
)
from repro.phy.oaqfm import (
    OaqfmSymbol,
    bits_to_symbols,
    oaqfm_waveform,
    symbols_to_bits,
    tone_gates,
)
from repro.phy.ook import decode_ook_levels, ook_waveform

bit_lists = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=128)


class TestOaqfmSymbols:
    def test_paper_mapping(self):
        # Fig. 6: '10' -> tone A only, '01' -> tone B only.
        assert OaqfmSymbol.from_bits(1, 0) == OaqfmSymbol(True, False)
        assert OaqfmSymbol.from_bits(0, 1) == OaqfmSymbol(False, True)

    def test_labels(self):
        assert OaqfmSymbol(True, True).label == "11"
        assert OaqfmSymbol(False, False).label == "00"

    def test_odd_bits_padded(self):
        symbols = bits_to_symbols([1, 0, 1])
        assert len(symbols) == 2
        assert symbols[1] == OaqfmSymbol(True, False)

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            bits_to_symbols([])

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_to_symbols([0, 2])

    @given(bit_lists)
    def test_roundtrip(self, bits):
        symbols = bits_to_symbols(bits)
        recovered = symbols_to_bits(symbols)
        padded = bits + [0] * (len(recovered) - len(bits))
        assert list(recovered) == padded

    def test_gates_repeat_per_symbol(self):
        gates_a, gates_b = tone_gates(bits_to_symbols([1, 0, 0, 1]), 4)
        assert list(gates_a) == [1.0] * 4 + [0.0] * 4
        assert list(gates_b) == [0.0] * 4 + [1.0] * 4


class TestOaqfmWaveform:
    def test_symbol_11_has_both_tones(self):
        pair = TonePair(28.4e9, 27.6e9)
        wave = oaqfm_waveform([1, 1], pair, 1e6, 4e9)
        spec = windowed_fft(wave)
        mags = spec.magnitude
        top2 = np.sort(np.abs(spec.frequencies_hz[np.argsort(mags)[-2:]]))
        assert top2[1] == pytest.approx(0.4e9, rel=0.01)

    def test_symbol_00_is_silence(self):
        pair = TonePair(28.4e9, 27.6e9)
        wave = oaqfm_waveform([0, 0], pair, 1e6, 4e9)
        assert wave.mean_power_w() == pytest.approx(0.0, abs=1e-12)

    def test_too_coarse_sampling_rejected(self):
        pair = TonePair(28.4e9, 27.6e9)
        with pytest.raises(ConfigurationError):
            oaqfm_waveform([1, 1], pair, 2e9, 4e9)


class TestOok:
    def test_waveform_gating(self):
        wave = ook_waveform([1, 0], 28e9, 1e6, 100e6)
        n = 100  # 1 us symbols at 100 MSa/s
        assert np.abs(wave.samples[:n]).mean() == pytest.approx(1.0)
        assert np.abs(wave.samples[n:]).mean() == pytest.approx(0.0)

    def test_decode_levels(self):
        bits = decode_ook_levels(np.array([0.9, 0.1, 0.85, 0.05]))
        assert list(bits) == [1, 0, 1, 0]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ook_waveform([1], 28e9, 0.0, 100e6)


class TestCrc:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty_is_init(self):
        assert crc16_ccitt(b"") == 0xFFFF

    def test_detects_single_bit_flip(self):
        base = crc16_ccitt(b"hello world")
        assert crc16_ccitt(b"hello worle") != base


class TestBitsBytes:
    def test_roundtrip(self):
        data = b"\x00\xff\xa5"
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_msb_first(self):
        assert list(bytes_to_bits(b"\x80")) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_partial_byte_rejected(self):
        with pytest.raises(ProtocolError):
            bits_to_bytes(np.ones(7, dtype=np.uint8))

    @given(st.binary(min_size=0, max_size=64))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


class TestFraming:
    def test_encode_decode_roundtrip(self):
        header, payload = decode_frame(encode_frame(b"milback"))
        assert payload == b"milback"
        assert header.crc_ok

    def test_sync_found_with_prefix_noise(self):
        frame = encode_frame(b"x")
        noisy = np.concatenate([np.array([0, 1, 1, 0, 0], dtype=np.uint8), frame])
        header, payload = decode_frame(noisy)
        assert payload == b"x"

    def test_sync_tolerates_one_error(self):
        frame = encode_frame(b"abc")
        frame[3] ^= 1  # corrupt inside the sync word
        header, payload = decode_frame(frame)
        assert payload == b"abc"

    def test_payload_corruption_fails_crc(self):
        frame = encode_frame(b"abc")
        frame[SYNC_WORD_BITS.size + 20] ^= 1
        header, _ = decode_frame(frame)
        assert not header.crc_ok

    def test_truncated_frame_raises(self):
        frame = encode_frame(b"abcdef")
        with pytest.raises(ProtocolError):
            decode_frame(frame[:30])

    def test_no_sync_raises(self):
        with pytest.raises(ProtocolError):
            decode_frame(np.zeros(64, dtype=np.uint8))

    def test_find_sync_position(self):
        frame = encode_frame(b"z")
        assert find_sync(frame) == SYNC_WORD_BITS.size

    @given(st.binary(min_size=1, max_size=32))
    def test_roundtrip_property(self, payload):
        header, decoded = decode_frame(encode_frame(payload))
        assert decoded == payload
        assert header.crc_ok
        assert header.payload_length == len(payload)


class TestBer:
    def test_q_function_is_erfc_per_element_bit_for_bit(self):
        values = np.random.default_rng(0).uniform(-40.0, 40.0, 20_000)
        expected = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in values])
        assert np.array_equal(q_function(values), expected)
        assert np.array_equal(
            q_function(values.reshape(100, 200)), expected.reshape(100, 200)
        )
        scalars = [q_function(v) for v in values.tolist()]
        assert all(type(q) is float for q in scalars)
        assert scalars == expected.tolist()

    def test_scalar_ber_equals_array_path_bit_for_bit(self):
        # The float path keeps NumPy's power: Python's ** differs from it
        # in the last bit on some hosts.
        grid = np.concatenate([np.linspace(-40.0, 60.0, 100_001), [math.inf, -math.inf]])
        expected = ook_matched_filter_ber(grid).tolist()
        scalars = [ook_matched_filter_ber(v) for v in grid.tolist()]
        assert all(type(ber) is float for ber in scalars)
        assert scalars == expected
        assert [ook_matched_filter_ber(v) for v in grid] == expected  # np.float64
        assert [ook_matched_filter_ber(np.asarray(v)) for v in grid[::97]] == expected[::97]
        assert ook_matched_filter_ber(12) == ook_matched_filter_ber(np.array([12.0]))[0]
        assert expected[-2:] == [0.0, 0.5]
        assert math.isnan(ook_matched_filter_ber(math.nan))
        assert math.isnan(ook_matched_filter_ber(np.array([math.nan]))[0])

    def test_q_function_values(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(3.0) == pytest.approx(1.35e-3, rel=0.01)

    def test_paper_annotation_12db_1e8(self):
        # Fig. 14: 12 dB SINR <-> BER ~1e-8.
        assert ook_matched_filter_ber(12.0) == pytest.approx(1e-8, rel=0.5)

    def test_matched_filter_beats_noncoherent(self):
        assert ook_matched_filter_ber(10.0) < ook_noncoherent_ber(10.0)

    def test_monotonic_in_snr(self):
        snrs = np.linspace(0, 20, 21)
        bers = ook_matched_filter_ber(snrs)
        assert np.all(np.diff(bers) < 0)

    def test_snr_for_target_roundtrip(self):
        snr = snr_for_target_ber(1e-6)
        assert ook_matched_filter_ber(snr) == pytest.approx(1e-6, rel=0.01)

    def test_snr_for_target_validates(self):
        with pytest.raises(ConfigurationError):
            snr_for_target_ber(0.7)

    def test_measure_ber(self):
        assert measure_ber([1, 0, 1, 0], [1, 0, 0, 0]) == pytest.approx(0.25)

    def test_measure_ber_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            measure_ber([1], [1, 0])

    def test_measure_ber_empty(self):
        with pytest.raises(ConfigurationError):
            measure_ber([], [])
