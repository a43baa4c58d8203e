//! Every paper result pinned: each `exp_*` binary runs once, and an
//! FNV-1a digest of its stdout and of every CSV it writes is compared
//! with the table below, as `tests/placement_golden.rs` pins placements.
//! A change that moves a single printed figure, or a CSV cell, fails
//! here; the binaries also assert their own claims, so a nonzero exit
//! fails too. A change that means to move a result names the experiment
//! and the reason in CHANGES.md, updates EXPERIMENTS.md, and copies the
//! new digests from the failure message into its row.

use std::path::Path;
use std::process::Command;

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs the binary at `exe` with its CSVs directed to a fresh
/// directory. Returns the digest of its stdout, with that directory's
/// path written as `$DIR`, and the digest of each CSV, by file name.
fn run(name: &str, exe: &str) -> (u64, Vec<(String, u64)>) {
    let dir = std::env::temp_dir().join(format!("scaddar-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(exe)
        .env("SCADDAR_EXPERIMENT_DIR", &dir)
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot start: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let stdout = stdout.replace(dir.to_str().expect("UTF-8 temp dir"), "$DIR");
    let csvs = if dir.exists() {
        digests(&dir)
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(&dir);
    (fnv(stdout.as_bytes()), csvs)
}

/// `(file name, digest)` of every file in `dir`, in name order.
fn digests(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("experiment dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv(&std::fs::read(&path).expect("CSV")))
        })
        .collect();
    files.sort();
    files
}

/// One test per binary, so the harness runs them in parallel and a
/// failure names the experiment.
macro_rules! pinned {
    ($($bin:ident => $stdout:literal $(, $csv:literal => $digest:literal)*;)*) => {$(
        #[test]
        fn $bin() {
            let got = run(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
            let want: (u64, Vec<(String, u64)>) = ($stdout, vec![$(($csv.to_string(), $digest)),*]);
            assert!(
                got == want,
                "{} moved: stdout {:#018x}, CSVs {:x?}",
                stringify!($bin),
                got.0,
                got.1
            );
        }
    )*};
}

pinned! {
    exp_baselines => 0xd56f_05eb_5d51_5dae,
        "e11_baselines.csv" => 0xd180_0ab7_2e7d_e294;
    exp_cov => 0x79af_071d_d93c_6752,
        "e5_cov_vs_ops.csv" => 0xb1f7_8ede_97a6_7b97;
    exp_decluster => 0x5a25_dcae_d253_1386,
        "e18_decluster.csv" => 0x008e_0d37_edd4_1565;
    exp_failure_recovery => 0xd6ba_c54a_1c0c_ae57,
        "e20_failure_recovery.csv" => 0x1a20_7e44_1bde_e5a7;
    exp_fig1_naive => 0x8bc5_5764_cd87_a899,
        "e1_fig1_source_census.csv" => 0x5979_ef72_094a_2413;
    exp_group_size => 0xa4ea_7710_fa38_3aac,
        "e15_group_size.csv" => 0x7079_9e51_5f0d_6515;
    exp_hetero => 0x831f_0ea6_26e8_18b6,
        "e16_hetero.csv" => 0x568e_b6c8_1324_f036;
    exp_mirror_movement => 0x8953_738f_3ee3_76e5,
        "e17_mirror_movement.csv" => 0xcf07_e39a_7af3_8d64;
    exp_mirroring => 0xfdb7_ea6c_accc_e37d,
        "e10_mirroring.csv" => 0x6858_8357_661f_1753;
    exp_movement => 0x2a4c_381c_5941_4b2a,
        "e6_movement.csv" => 0x6298_7271_a0c2_b832;
    exp_online => 0xac46_2f41_e3a7_942f,
        "e9_online.csv" => 0x3850_d112_0f03_7297;
    exp_parity => 0x0cc8_a598_065f_e140,
        "e13_parity.csv" => 0xf153_01fa_ea16_1a84;
    exp_provisioning => 0xbd5b_392c_95f5_7d8c,
        "e19_provisioning.csv" => 0xb231_c465_2e6e_a70e;
    exp_rng_ablation => 0x4565_eba0_baf8_8311,
        "e14_rng_ablation.csv" => 0xa71a_05fd_76e2_11d5;
    exp_rule_of_thumb => 0xcea5_b6d1_411e_2ced,
        "e4_rule_of_thumb.csv" => 0x24b0_19b1_f687_4738;
    exp_storage => 0xeeb9_cc34_8e10_09e9,
        "a1_storage_directory.csv" => 0xed15_bc55_7091_210c,
        "a1_storage_log.csv" => 0x6caa_fc7c_1be0_3d8a;
    exp_unfairness => 0x575c_89a6_64bd_4b65,
        "e7_unfairness.csv" => 0x7a58_6d85_2041_113c;
    exp_worked_examples => 0x9ec3_4726_652b_b65e;
}
