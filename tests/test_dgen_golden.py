"""Golden digests of dgen's output: the generated source must not drift unnoticed.

Each Table-1 program's pipeline description is pinned by the sha256 of its
rendered source at every opt level, each catalogue atom by its hole names,
hole domains and the digest of its printed DSL text, and the generated
dRMT ``run_trace`` of both sample P4 programs by the digest of its source.  A refactor of
the ALU DSL front end or of dgen that is meant to leave the generated code
alone must keep every digest; a change that is meant to alter the code
updates the digests it alters, on purpose.
"""

import hashlib

import pytest

from repro import atoms, dgen
from repro.alu_dsl import format_spec
from repro.drmt import DrmtHardwareParams, generate_bundle
from repro.p4 import samples
from repro.programs import get_program, program_names


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of ``dgen.generate(...).source`` per program, at opt levels 0, 1, 2, 3.
PROGRAMS = {
    'blue_decrease': (
        '2911c4d991328c8a64f96be1823d6a7011730fe9e3bfdc5aa40a4943e1b62950',
        '3a79bdbaecb22e611d530a376f5b33f8da6950f0490c66b624175907ece97835',
        '8c0a297d13c5cba44e7d0d89c7a98afc29b9896e06cc9ed6a788f4d82aea7ba1',
        '4b049022bb68ae9b6abe6ddfc5b5770c82a93ea060769110c2514f1a67cbb15b',
    ),
    'blue_increase': (
        'ed669da9941cc3f416190480d460207868e88235872bb470b00cc1face7e1f7d',
        '3969616dddb9e288cd3276f46b07d1a90fdb110cce5a04479932ca7c5ffc5647',
        '4abab65ad8fb91cd86c3f11296d701c3fb68509537bd0d6494bde57c06d4fb31',
        '5da707defef60334f43945899cfb099a828fc34c8dcad219d9e0405c536cce6a',
    ),
    'sampling': (
        'c5bc0feb93557680d316c49b5ee51f7e01883565f85ff41ba67b5ee2a1bc097a',
        'cbcbc01349f8506bab63584f7d397632e0157a399123982ff218d8b90109be59',
        'b2edd975ed74620e7c489d1cc8f8a1d7323e64439bbcc3e8ffbad12a07483259',
        'ac168d395785710fc528c44d260675990e50860a2e59093c39891f516e873fb3',
    ),
    'marple_new_flow': (
        '66ee7949d9f90a9c2c2320784d76ecb451e2fcd012782f9d40a75bfae9b115f3',
        'f8f4f6f4f91e200542b464f30e55e32abdfcceaa6d428bbff96d91fc1ac0d6e2',
        '83382a8d121effd11800493cb0783727fb456181c780ed0b7661ffdf1cacafd7',
        '84b25f633c3f97792f513175a8fbedbffdd053f0bc5a46287ba86041d974eede',
    ),
    'marple_tcp_nmo': (
        'e3bacc7d3094ca63c83897c0cd807fb25668c69d57b52792285e0cd6715b283b',
        '4b579fed3a3dbbd092224a1c68474f1cd3240cdc26517bbd27c6e0e4d0c71cec',
        '1b166ca068ac4f98d7c4daf3b47f9fa5657e37cdf2dcd4aa23eb300679586c6a',
        '0cd85ea771dbcc147d5722514c50c4b276270c1c27a9f76e2bf045acce028682',
    ),
    'snap_heavy_hitter': (
        'eaadbbe0f94dd601360224f73f0c20c1a64e8ffd5da23ec9a8fc499f6edb22a1',
        'd218a89ab62624eb4f13a028904da51fcdeaafbedcd7564c1863904e6cec57c4',
        '5ff632c6fd7fe8e131445bfcd53a2a304940445585bd089e2e13d499ed31c389',
        'e0ab754e79ab91abdaa709182ba60376abcab856a652c62f3b8d831230ff9c02',
    ),
    'stateful_firewall': (
        '897de7b70cd84b283ec4825e26150e979a95c38e7a4cec0a2373fa94826ded52',
        '60b45b401566ead0279c2c82caab38b048bce3e096fde16bfa827eac8e63505d',
        '81f9057d6d11256282ccfbbb38493b1087729675ee2b188f58356b654d821f0f',
        '863b1d43722ac0c1a9b7988f40a61369fc47f9566bfd0a66abe69714b71edf92',
    ),
    'flowlets': (
        '073056939b8853f62bcf81ca70acc1ece65fef1a0f61c099858fa5498e0968a8',
        '9fe9cc52bde6acee0dbee64e7573fb80fc8a6139ce97271c59df7a0ceee3defb',
        '24be55a794dca5faa297094368fd2e501715a845fe7b99842b65b46d6337fa44',
        '8623037ad4a1ae7e8d82197e4b140ba09319ce53667b860f0057bf7f40019c36',
    ),
    'learn_filter': (
        '3d85b8b31cb6d1cf22495b27ffebd42a41e906dc7dad078b872287dfc98bfe6e',
        'd323e42d1fdf8b253a987c2bad3245051a7de35619f1deea1a0c39b0d5e96dc1',
        'c75f238fbe72708daeeb59a66c1e8205c81015e1d9fd5744fc245e5df3392987',
        '2d273f4830e20fa2c9f634f12761a69895ea266d40aee66ccd2e42b33df4f5c4',
    ),
    'rcp': (
        '8648ef9638009ebe1ebe387967a55538239dd03dad0b3620d880323e6fe91afd',
        '41c445ff8b1670c2a4468fb67deb84fe061092f7a007986322bbda12ba733396',
        '7757179a7345aeddd45af26948ee1c15965c3b8e48c3ed548ba4a40a61713c81',
        '11bb48eb58c5d9b95d202d28ec319deb7391aba0b1f63d407b75a2b12c5ac08e',
    ),
    'conga': (
        '744cdfccacbe1975328ebc245b66b611a8df55e93e053ed46b67db64f734f9c6',
        'b30c8fad73e147b9cf9cde430b4d048bcaeeb8334b5bd4da9379f075a7cd2840',
        'e1e1fc43616e3690ad3ec2d1526d7e6f4aca68875eee18845bfe6ae54e3b98d2',
        '110a7a34fabc10fa542d0a5ae51754640fd314ac428b812016e8e3c36e423f18',
    ),
    'spam_detection': (
        '7060a036f508de32b544c5686282696cacd175e79cb3b6f12f0029206c57ab09',
        '7135230936c1537966109f3d29e84e3861f7a330273ee7f092b841c113cfd2d0',
        '29817950600519fc8792dd3bc8f5e8bd0e3be3cd78b5ce192ac8514fa14cec1f',
        '19f5679eae80334d030cb758095ce2588cae86d119140ee44dc6e83d336c7df2',
    ),
}
#: sha256 of ``generate_bundle(...).fused_program().source`` per sample P4
#: program, scheduled greedily on the default ``DrmtHardwareParams()``.
DRMT_FUSED = {
    'simple_router': '87903c62ae8fb4451dbc8fdee676fc8054f3bcca239f99d9931f28b7e4b933b3',
    'telemetry_pipeline': 'd30506981c93f29e7f47a13d07beadc3988e67e4250ca4764fc52f33aad0a1b6',
}
#: (holes, hole_domains, sha256 of format_spec) per catalogue atom.
ATOMS = {
    'raw': (
        ('opt_0', 'const_0', 'mux3_0'),
        {'opt_0': 2, 'const_0': 0, 'mux3_0': 3},
        '3cc8b97b11873d119ab18fecea3ee7dab1d18d3ce78e072e2263b63d522f8637',
    ),
    'if_else_raw': (
        ('opt_0', 'const_0', 'mux3_0', 'rel_op_0', 'opt_1', 'const_1', 'mux3_1', 'opt_2', 'const_2', 'mux3_2'),
        {'opt_0': 2, 'const_0': 0, 'mux3_0': 3, 'rel_op_0': 6, 'opt_1': 2, 'const_1': 0, 'mux3_1': 3, 'opt_2': 2, 'const_2': 0, 'mux3_2': 3},
        '4bcb47244dd778ba8e2b8c506edd10b5a981727d100417f9903b8d87547334da',
    ),
    'pred_raw': (
        ('opt_0', 'const_0', 'mux3_0', 'rel_op_0', 'opt_1', 'const_1', 'mux3_1', 'arith_op_0'),
        {'opt_0': 2, 'const_0': 0, 'mux3_0': 3, 'rel_op_0': 6, 'opt_1': 2, 'const_1': 0, 'mux3_1': 3, 'arith_op_0': 4},
        'b5f8a61eb6c3593d9a94823ea6fde7ad85923eef6c46a05e0f98f6d20b342df7',
    ),
    'sub': (
        ('opt_0', 'const_0', 'mux3_0', 'rel_op_0', 'opt_1', 'const_1', 'mux3_1', 'arith_op_0', 'opt_2', 'const_2', 'mux3_2', 'arith_op_1'),
        {'opt_0': 2, 'const_0': 0, 'mux3_0': 3, 'rel_op_0': 6, 'opt_1': 2, 'const_1': 0, 'mux3_1': 3, 'arith_op_0': 4, 'opt_2': 2, 'const_2': 0, 'mux3_2': 3, 'arith_op_1': 4},
        '94d83882723a1f6a58528683fa90bdbb0c64441cafbc19da2bb7ddb2fe829c61',
    ),
    'nested_if': (
        ('opt_0', 'const_0', 'mux3_0', 'rel_op_0', 'opt_1', 'const_1', 'mux3_1', 'rel_op_1', 'opt_2', 'const_2', 'mux3_2', 'arith_op_0', 'opt_3', 'const_3', 'mux3_3', 'arith_op_1', 'opt_4', 'const_4', 'mux3_4', 'arith_op_2'),
        {'opt_0': 2, 'const_0': 0, 'mux3_0': 3, 'rel_op_0': 6, 'opt_1': 2, 'const_1': 0, 'mux3_1': 3, 'rel_op_1': 6, 'opt_2': 2, 'const_2': 0, 'mux3_2': 3, 'arith_op_0': 4, 'opt_3': 2, 'const_3': 0, 'mux3_3': 3, 'arith_op_1': 4, 'opt_4': 2, 'const_4': 0, 'mux3_4': 3, 'arith_op_2': 4},
        '41df31fdc3687940bd09e08244bc05215b8eea34468aa32df9b0dad1a3343c68',
    ),
    'pair': (
        ('mux2_0', 'const_0', 'mux3_0', 'rel_op_0', 'const_1', 'mux2_1', 'mux2_2', 'const_2', 'mux3_1', 'rel_op_1', 'const_3', 'mux2_3', 'bool_op_0', 'const_4', 'mux3_2', 'const_5', 'mux3_3', 'arith_op_0', 'const_6', 'mux3_4', 'const_7', 'mux3_5', 'arith_op_1', 'const_8', 'mux3_6', 'const_9', 'mux3_7', 'arith_op_2', 'const_10', 'mux3_8', 'const_11', 'mux3_9', 'arith_op_3'),
        {'mux2_0': 2, 'const_0': 0, 'mux3_0': 3, 'rel_op_0': 6, 'const_1': 0, 'mux2_1': 2, 'mux2_2': 2, 'const_2': 0, 'mux3_1': 3, 'rel_op_1': 6, 'const_3': 0, 'mux2_3': 2, 'bool_op_0': 2, 'const_4': 0, 'mux3_2': 3, 'const_5': 0, 'mux3_3': 3, 'arith_op_0': 4, 'const_6': 0, 'mux3_4': 3, 'const_7': 0, 'mux3_5': 3, 'arith_op_1': 4, 'const_8': 0, 'mux3_6': 3, 'const_9': 0, 'mux3_7': 3, 'arith_op_2': 4, 'const_10': 0, 'mux3_8': 3, 'const_11': 0, 'mux3_9': 3, 'arith_op_3': 4},
        'ea75e751543e825dd32fecf7f05f47a1ef0eea6beff739a81796dba81574a132',
    ),
    'stateless_arith': (
        ('const_0', 'mux3_0', 'const_1', 'mux3_1', 'arith_op_0'),
        {'const_0': 0, 'mux3_0': 3, 'const_1': 0, 'mux3_1': 3, 'arith_op_0': 4},
        '478881c80412edaec2932bf99a6fb798e23f006f6f769bba2f058f2d76630965',
    ),
    'stateless_rel': (
        ('const_0', 'mux3_0', 'const_1', 'mux3_1', 'rel_op_0'),
        {'const_0': 0, 'mux3_0': 3, 'const_1': 0, 'mux3_1': 3, 'rel_op_0': 6},
        'cd5f5a51764da854ac858bb31b3109f448495b6cb712f7ba22b4e93b02ba180f',
    ),
    'stateless_mux': (
        ('const_0', 'mux3_0'),
        {'const_0': 0, 'mux3_0': 3},
        '17c68f8ba97902e579f8b75e615b328e7e3036cadc6ca5d65565e3df3789523b',
    ),
    'stateless_const': (
        ('const_0', 'mux2_0'),
        {'const_0': 0, 'mux2_0': 2},
        'f52fff6542bca58f89e1cf6e238921119e73d815025035e345c4fae0c0389370',
    ),
    'stateless_full': (
        ('const_0', 'mux3_0', 'const_1', 'mux3_1', 'arith_op_0', 'const_2', 'mux3_2', 'const_3', 'mux3_3', 'rel_op_0', 'mux2_0'),
        {'const_0': 0, 'mux3_0': 3, 'const_1': 0, 'mux3_1': 3, 'arith_op_0': 4, 'const_2': 0, 'mux3_2': 3, 'const_3': 0, 'mux3_3': 3, 'rel_op_0': 6, 'mux2_0': 2},
        '11dba5b40160fd38280d44cf3cbff2e8a213331fc61789fde12e366efe4424dd',
    ),
}


@pytest.mark.parametrize("level", dgen.OPT_LEVELS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_source_is_pinned(name, level):
    program = get_program(name)
    source = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=level).source
    assert _digest(source) == PROGRAMS[name][level], (
        f"generated source of ({name}, level {level}) changed"
    )


def test_every_table1_program_is_pinned():
    assert sorted(program_names()) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", atoms.atom_names())
def test_atom_holes_and_text_are_pinned(name):
    spec = atoms.get_atom(name)
    holes, domains, text_digest = ATOMS[name]
    assert tuple(spec.holes) == holes, f"hole names of atom {name!r} changed"
    assert dict(spec.hole_domains) == domains, f"hole domains of atom {name!r} changed"
    assert _digest(format_spec(spec)) == text_digest, f"printed text of atom {name!r} changed"


@pytest.mark.parametrize("name", sorted(DRMT_FUSED))
def test_drmt_fused_source_is_pinned(name):
    bundle = generate_bundle(getattr(samples, name)(), DrmtHardwareParams())
    source = bundle.fused_program().source
    assert _digest(source) == DRMT_FUSED[name], f"fused dRMT source of {name} changed"
