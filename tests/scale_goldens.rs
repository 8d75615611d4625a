//! Pinned `RunResult::digest()`s for short runs above 64 nodes.
//!
//! Every other golden in the repository runs 16 nodes, where a
//! destination set is one machine word and a multicast fans out over at
//! most a handful of links. These runs sit on both sides of `DestSet`'s
//! inline/spill boundary — 65 and 128 nodes (two inline words, the second
//! holding one node or a full 64) and 144 (three words, spilled to the
//! heap) — and cover each multicast source the
//! protocols have: PATCH-All and PATCH-BroadcastIfShared direct requests,
//! TokenB's broadcasts and DIRECTORY's invalidation forwards (a coarse
//! sharer vector, so the forwards go to many nodes), on the torus, mesh,
//! hierarchical and crossbar fabrics. PATCH-Owner's unicast to its trained
//! owner candidate has a table of its own: it is the one trained-predictor
//! path that reads the owner field rather than the sharing summary. A
//! change in how a fan-out groups its destinations that delivers to the
//! wrong nodes, in another order or over other links moves a digest here;
//! `shadow_equivalence` shares the fabric and cannot see it.
//!
//! The digests are simulation outputs: update them only for an
//! intentional simulation-semantics change (bump `CODE_VERSION`, as the
//! other goldens require).

use patchsim::{
    run, FabricKind, PredictorChoice, ProtocolKind, SharerEncoding, SimConfig, WorkloadSpec,
};
use patchsim_protocol::ProtocolConfig;

/// The four fabrics, in table order.
const FABRICS: [FabricKind; 4] = [
    FabricKind::Torus,
    FabricKind::Mesh2D,
    FabricKind::Hierarchical { cluster: None },
    FabricKind::FullyConnected,
];

/// The four multicast sources, in table order.
const PROTOCOLS: [&str; 4] = ["patch-all", "patch-bis", "tokenb", "directory-coarse"];

/// One short run: a small shared table so blocks are shared and written,
/// six measured ops per core, no warmup.
fn config(protocol: &str, fabric: FabricKind, n: u16) -> SimConfig {
    let base = match protocol {
        "patch-all" => SimConfig::new(ProtocolKind::Patch, n).with_predictor(PredictorChoice::All),
        "patch-bis" => SimConfig::new(ProtocolKind::Patch, n)
            .with_predictor(PredictorChoice::BroadcastIfShared),
        "patch-owner" => {
            SimConfig::new(ProtocolKind::Patch, n).with_predictor(PredictorChoice::Owner)
        }
        "tokenb" => SimConfig::new(ProtocolKind::TokenB, n),
        "directory-coarse" => {
            let coarse = SharerEncoding::Coarse { cores_per_bit: 8 };
            SimConfig::new(ProtocolKind::Directory, n).with_protocol(
                ProtocolConfig::new(ProtocolKind::Directory, n).with_sharer_encoding(coarse),
            )
        }
        other => panic!("no protocol {other}"),
    };
    base.with_fabric(fabric)
        .with_workload(WorkloadSpec::Microbenchmark {
            table_blocks: 256,
            write_frac: 0.3,
            think_mean: 10,
        })
        .with_ops_per_core(6)
        .with_warmup(0)
        .with_seed(29)
}

/// Runs the 16 cells of one system size and compares each digest with
/// `want` (rows in `FABRICS` order, columns in `PROTOCOLS` order). Every
/// cell runs before the comparison, so a failure prints the whole table.
fn check(n: u16, want: [[u64; 4]; 4]) {
    check_protocols(n, PROTOCOLS, want);
}

/// [`check`] over any list of protocols: one column per entry of
/// `protocols`.
fn check_protocols<const P: usize>(n: u16, protocols: [&str; P], want: [[u64; P]; 4]) {
    let got: Vec<[u64; P]> = FABRICS
        .iter()
        .map(|&fabric| protocols.map(|protocol| run(&config(protocol, fabric, n)).digest()))
        .collect();
    let mut mismatches = Vec::new();
    for (row, fabric) in FABRICS.iter().enumerate() {
        for (col, protocol) in protocols.iter().enumerate() {
            if got[row][col] != want[row][col] {
                mismatches.push(format!(
                    "{n} nodes, {fabric}, {protocol}: {:#018x}, pinned {:#018x}",
                    got[row][col], want[row][col]
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}\nwhole table: {got:#018x?}",
        mismatches.join("\n")
    );
}

/// One node past a single word: the set's top member is alone in the
/// second word.
#[test]
fn sixty_five_nodes() {
    check(
        65,
        [
            [
                0x88417d7e1169174c,
                0x17ef4db7549fc004,
                0x850e5300986f8745,
                0xe0c9470c258e70b4,
            ],
            [
                0x86d7e4d699899ef2,
                0xdd9c5e665df1527c,
                0x8b4bf7f3f0be6834,
                0x76ba37490167f64d,
            ],
            [
                0xeee68d309af5d1bc,
                0x82c41df5f8a6f2f8,
                0x19b14e73e17e304b,
                0x23fffc1ecf0461e5,
            ],
            [
                0x283b116e32d2ab60,
                0xbedfffd13ef5d226,
                0xb2ebd02aec44182c,
                0x0ab6ee06b64a0a31,
            ],
        ],
    );
}

/// Two full words: the largest system whose sets stay inline.
#[test]
fn one_hundred_twenty_eight_nodes() {
    check(
        128,
        [
            [
                0x1e68400cd412cc70,
                0x5f29adf45886807c,
                0x0208cce18c01d325,
                0x286524be48250ae0,
            ],
            [
                0xcacb86d7c2e78174,
                0x69c8aa7b5232660e,
                0x8fbb3bdec6d9c6ef,
                0x165cf2ae1b8b4f07,
            ],
            [
                0xf33f809562503b3c,
                0xef612e4e5858c6a5,
                0xa9b4a56ccbdd1312,
                0xcc3dec1a78c2b0ee,
            ],
            [
                0xa4489a300ce56249,
                0x77d888d5e4d1ade2,
                0x0abb3529d43b07cf,
                0x6dff9405a3ec1536,
            ],
        ],
    );
}

/// Three words: the sets spill to the heap.
#[test]
fn one_hundred_forty_four_nodes() {
    check(
        144,
        [
            [
                0xe6bdc06afa21184d,
                0xef958999d4839c1c,
                0x971d4e13340d8655,
                0x948871c23b76b86e,
            ],
            [
                0x79d4d79b313c8544,
                0xa62a1107c4d86b17,
                0x59e5190cf34191f2,
                0xa3681a0dd8caea41,
            ],
            [
                0x580a5dbeffa1603f,
                0x918f999039ae5c99,
                0x597feb07d8e68d92,
                0x26fe838a0774f7c3,
            ],
            [
                0xc39e89c33b0b97de,
                0x0400588ca1c962f6,
                0x6d620a58b7f90f91,
                0x2b5423797e3152a8,
            ],
        ],
    );
}

/// PATCH-Owner at all three sizes, one row per size in `FABRICS` order:
/// every node trains on the requests and responses it receives, and a miss
/// sends one direct request to the last responder its table recorded.
#[test]
fn patch_owner_above_sixty_four_nodes() {
    for (n, want) in [
        (
            65,
            [
                0x30c33dfbb9cbe6fa,
                0x6f74beb913418e0b,
                0xa62bed18ee71f06e,
                0x0940799b0a8eeff1,
            ],
        ),
        (
            128,
            [
                0xf2aa7a51d5e038de,
                0xc97a90cd6ea00e43,
                0xf3c4c8598fb7f91c,
                0xd1661cb56886c578,
            ],
        ),
        (
            144,
            [
                0x1858443f4d4f0724,
                0x91012d9e13ab5a12,
                0x32327963b3b61c8c,
                0x1a8938090359ffd6,
            ],
        ),
    ] {
        check_protocols(n, ["patch-owner"], want.map(|digest| [digest]));
        // Not vacuous: the trained owner candidates draw direct requests.
        let counters = run(&config("patch-owner", FabricKind::Torus, n)).counters;
        assert!(counters.direct_responses + counters.direct_ignored > 0);
    }
}
