//! A `--machine-file` whose cache geometry the simulator cannot build is
//! rejected when it loads: every command exits 1 with the validation
//! error, whether or not it would go on to simulate.

use std::path::PathBuf;
use xflow::MachineModel;

/// Breaks one cache parameter of a valid machine.
type Break = fn(&mut MachineModel);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xflow-machine-file-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bad_cache_geometry_fails_every_command() {
    let skylake = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/machines/skylake.json")).unwrap();
    let skylake: MachineModel = serde_json::from_str(&skylake).unwrap();
    assert!(skylake.validate().is_empty());
    let cases: [(&str, Break, &str); 4] = [
        ("l1-assoc", |m| m.l1.assoc = 0, "l1 associativity must be nonzero"),
        ("llc-assoc", |m| m.llc.assoc = 0, "llc associativity must be nonzero"),
        ("llc-line-zero", |m| m.llc.line_bytes = 0, "llc line size must be a nonzero power of two"),
        ("llc-line-96", |m| m.llc.line_bytes = 96, "llc line size must be a nonzero power of two"),
    ];
    let dir = temp_dir("geometry");
    for (name, break_it, error) in cases {
        let mut m = skylake.clone();
        break_it(&mut m);
        let file = dir.join(format!("{name}.json"));
        std::fs::write(&file, serde_json::to_string(&m).unwrap()).unwrap();
        for cmd in ["simulate", "hotspots"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_xflow"))
                .args([cmd, "srad", "--machine-file", file.to_str().unwrap()])
                .output()
                .expect("run xflow");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} with {name}: {stderr}");
            assert!(stderr.starts_with("error: invalid machine model"), "{cmd} with {name}: {stderr}");
            assert!(stderr.contains(error), "{cmd} with {name}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd} with {name} printed output");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
