"""Tests for the Paillier acceleration layer.

Covers the CRT + randomizer-pool offline split and the fixed-base comb
against the builtin ``pow`` oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.accel import (
    FixedBaseTable,
    RandomizerPool,
    precompute_obfuscator,
)
from repro.crypto.paillier import generate_keypair, homomorphic_sum


@pytest.fixture(scope="module")
def pool_keypair():
    return generate_keypair(128, random.Random(77))


def test_precompute_obfuscator_crt_matches_public_path(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    for r in (2, 12345, public.n - 1):
        assert precompute_obfuscator(public, r) == precompute_obfuscator(
            public, r, private_key=private
        )


def test_pooled_encrypt_decrypts_like_fresh(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(1), private_key=private)
    pool.warm(8)
    for value in (0, 1, -1, 999, -999, public.max_plaintext, -public.max_plaintext):
        assert private.decrypt(pool.encrypt(value)) == value


def test_pool_entries_are_single_use(pool_keypair):
    pool = RandomizerPool(
        pool_keypair.public_key, random.Random(2), private_key=pool_keypair.private_key
    )
    pool.warm(16)
    taken = pool.take_many(16)
    # Every obfuscator is handed out exactly once (one-time-pad discipline).
    assert len(set(taken)) == len(taken)
    assert pool.available == 0
    assert pool.consumed == 16
    assert pool.fallback_count == 0


def test_exhausted_pool_falls_back_to_online(pool_keypair):
    """Regression: draining the pool must transparently re-run the online path."""
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(3), private_key=private)
    pool.warm(2)
    values = [11, -22, 33, -44, 55]
    ciphertexts = [pool.encrypt(v) for v in values]
    assert [private.decrypt(ct) for ct in ciphertexts] == values
    assert pool.fallback_count == len(values) - 2
    assert pool.consumed == len(values)


def test_warm_tops_up_without_overfilling(pool_keypair):
    pool = RandomizerPool(
        pool_keypair.public_key, random.Random(4), private_key=pool_keypair.private_key
    )
    assert pool.warm(5) == 5
    assert pool.warm(5) == 0
    pool.take()
    assert pool.warm(5) == 1
    assert pool.available == 5
    assert pool.produced == 6


def test_pool_without_private_key(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(5))
    pool.warm(3)
    assert private.decrypt(pool.encrypt(4242)) == 4242


def test_pool_rejects_mismatched_private_key(pool_keypair):
    other = generate_keypair(128, random.Random(88))
    with pytest.raises(ValueError):
        RandomizerPool(pool_keypair.public_key, private_key=other.private_key)


def test_encrypt_many_uses_one_obfuscator_each(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(6), private_key=private)
    pool.warm(4)
    values = [1, 2, 3, 4]
    ciphertexts = pool.encrypt_many(values)
    assert private.decrypt_many(ciphertexts) == values
    assert pool.available == 0


def test_batched_homomorphic_sum_matches_sequential(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    values = list(range(-10, 25, 3))
    ciphertexts = public.encrypt_many(values, rng=random.Random(7))
    for chunk in (1, 2, 8, 64):
        total = homomorphic_sum(ciphertexts, public, chunk_size=chunk)
        assert private.decrypt(total) == sum(values)


# -- fixed-base comb -------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=2**80),
    exponents=st.lists(st.integers(min_value=0, max_value=2**48 - 1), min_size=1, max_size=6),
    modulus=st.integers(min_value=2, max_value=2**80),
    window_bits=st.integers(min_value=1, max_value=6),
)
def test_fixed_base_table_matches_pow(base, exponents, modulus, window_bits):
    table = FixedBaseTable(base, modulus, max_exponent_bits=48, window_bits=window_bits)
    for exponent in exponents:
        assert table.powmod(exponent) == pow(base, exponent, modulus)


def test_fixed_base_table_rejects_out_of_range():
    table = FixedBaseTable(3, 1000, max_exponent_bits=8)
    assert table.powmod(0) == 1
    assert table.powmod(1) == 3
    assert table.powmod(255) == pow(3, 255, 1000)
    with pytest.raises(ValueError):
        table.powmod(256)
    with pytest.raises(ValueError):
        table.powmod(-1)
    with pytest.raises(ValueError):
        FixedBaseTable(3, 0, max_exponent_bits=8)


def test_fixed_base_table_matches_multiply_plaintext(pool_keypair):
    """The Protocol 4 usage: same integers as multiply_plaintext, table or not."""
    public, private = pool_keypair.public_key, pool_keypair.private_key
    ciphertext = public.encrypt(37, rng=random.Random(11))
    # Negative scalars encode into the upper half of Z_n (the "negative
    # encodings" edge case): the table sees the encoded non-negative value.
    scalars = [0, 1, 2, 999, -1, -999, 10**12]
    encoded = [s % public.n for s in scalars]
    table = FixedBaseTable(
        ciphertext.value,
        public.n_squared,
        max_exponent_bits=max(e.bit_length() for e in encoded),
    )
    for scalar, enc in zip(scalars, encoded):
        assert table.powmod(enc) == ciphertext.multiply_plaintext(scalar).value
