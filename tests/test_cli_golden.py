"""Golden CLI transcripts: the stdout digests of the automorphism-group
verbs, recorded from the version that listed every automorphism by
backtracking. The stabilizer-chain search must print the same bytes."""

import hashlib

import pytest

from sqk.cli import run

SPECS = {
    "antipodal8": ["antipodal", "8"],
    "dihedral6": ["dihedral-quandle", "6"],
    "conj_s3": ["conj", "sym", "3"],
    "conj_d4": ["conj", "dihedral-group", "4"],
}
COMMANDS = {
    "aut": ["aut"],
    "aut-symmetric": ["aut", "--symmetric"],
    "orbits-aut": ["orbits", "--group", "aut"],
    "decompose-aut": ["decompose", "--group", "aut"],
}
# (exit code, sha256 of stdout with the input path replaced by "<file>");
# dihedral-quandle 6 has no rho line, so the symmetric verbs exit 2
GOLDEN = {
    ("antipodal8", "aut"): (0, "f9e9ee8708124dd2a388bc4b5f69c46d5796b5de08fd5454ed2fb045b383d14e"),
    ("antipodal8", "aut-symmetric"): (0, "da398d8872c7ac83c0cad8529e2dcb864f457f69e4bd2038c5340d52ff1b324f"),
    ("antipodal8", "orbits-aut"): (0, "255edb8aff96c737837fbe30434c3224557519df8cb3156b5f25aac5de0075f8"),
    ("antipodal8", "decompose-aut"): (0, "f0a812b10a3287a14cfac9f02d7807c13a89b8cdf399c2600ef32a6e151718e7"),
    ("dihedral6", "aut"): (0, "6bff938950b640545c4c8fb32e136f511d14d64e057d930a0d48c7dce1704649"),
    ("dihedral6", "aut-symmetric"): (2, "7822c6f4706f284150a66f7906d615a8c10af062ba7b88a77e7a3e9eefe98c4a"),
    ("dihedral6", "orbits-aut"): (0, "9497ede8debc4e442c7c6652329f2089bd5ff95e2e00597279ffe70ef24c0e0a"),
    ("dihedral6", "decompose-aut"): (2, "7822c6f4706f284150a66f7906d615a8c10af062ba7b88a77e7a3e9eefe98c4a"),
    ("conj_s3", "aut"): (0, "1130c41ab084a9832e0bbf1518db773f5ea1fe43b8d51743c07592de73bbf09c"),
    ("conj_s3", "aut-symmetric"): (0, "64b7b8d9d6ff3e08cb1eddee7c81e2380be1c69754827e111752a4647cfd89bb"),
    ("conj_s3", "orbits-aut"): (0, "96d7e02bd5f35ec8255ac8d4b636020c8183a72b116fd8a3b4936f6f100928c1"),
    ("conj_s3", "decompose-aut"): (0, "20ff14c712da9d94da8a565885c4c8fe2b31a15c711f85b2939cce517cbd320d"),
    ("conj_d4", "aut"): (0, "3ef048617e967ee4aa2468b8e8f258ac1f98ec6f6247cb5a4fad91b03bce0b94"),
    ("conj_d4", "aut-symmetric"): (0, "fd3753f216c55cb76dce58d554ce0af6cf31ea80ad0b56ea0156f017ab0958c5"),
    ("conj_d4", "orbits-aut"): (0, "49c4465be12d1b9ba140ca9183919db88712cd803967230684ba8c92e618e269"),
    ("conj_d4", "decompose-aut"): (0, "0b5ffe6d9dec71bf5b7c8e0946a7e50e1839def28cce6d7a31ecba570972c2b8"),
}


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_aut_verbs_match_golden_digests(tmp_path, spec):
    path = str(tmp_path / f"{spec}.qnd")
    assert run(["catalog", *SPECS[spec], "-o", path])[0] == 0
    for name, (verb, *flags) in COMMANDS.items():
        code, text = run([verb, path, *flags])
        digest = hashlib.sha256(text.replace(path, "<file>").encode()).hexdigest()
        assert (code, digest) == GOLDEN[(spec, name)], name
