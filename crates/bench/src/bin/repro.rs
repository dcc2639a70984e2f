//! `repro` — prints the reproduced rows/series for every table and figure in
//! the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro all                # everything
//! repro table1 table2      # specific experiments
//! repro list               # list available experiment ids
//! ```

#![deny(clippy::disallowed_types)]

use erasmus_bench::{
    buffer_sizing, fig1, hwcost, protocol_figures, qoa_sweep, runtime, scheduling, swarm_mobility,
    table1, table2,
};

const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Size of the attestation executable"),
    ("table2", "Collection-phase run-time breakdown (i.MX6)"),
    ("fig1", "QoA timeline: mobile vs persistent infection"),
    ("fig2", "ERASMUS collection protocol run"),
    ("fig3", "Rolling-buffer memory layout (n = 12)"),
    ("fig4", "ERASMUS+OD protocol run"),
    ("fig5", "SMART+ memory organization and access rules"),
    (
        "fig6",
        "Measurement run-time vs memory size (MSP430 @ 8 MHz)",
    ),
    ("fig7", "HYDRA memory organization and access rules"),
    (
        "fig8",
        "Measurement run-time vs memory size (i.MX6 @ 1 GHz)",
    ),
    ("hwcost", "FPGA register/LUT overhead (Section 4.1)"),
    ("qoa", "Mobile-malware detection probability sweep"),
    (
        "schedules",
        "Regular vs irregular vs lenient scheduling ablations",
    ),
    ("buffer_sizing", "Buffer size vs collection period ablation"),
    ("swarm", "Swarm coverage under mobility (Section 6)"),
];

fn run_experiment(id: &str) -> Option<String> {
    match id {
        "table1" => Some(table1::render()),
        "table2" => Some(table2::render()),
        "fig1" => Some(fig1::render()),
        "fig2" => Some(protocol_figures::figure2()),
        "fig3" => Some(protocol_figures::figure3()),
        "fig4" => Some(protocol_figures::figure4()),
        "fig5" => Some(protocol_figures::figure5()),
        "fig7" => Some(protocol_figures::figure7()),
        "fig6" => Some(runtime::render(
            "Figure 6: Measurement run-time on MSP430 @ 8 MHz",
            &runtime::figure6(),
            1024,
            "KB",
        )),
        "fig8" => Some(runtime::render(
            "Figure 8: Measurement run-time on i.MX6 Sabre Lite @ 1 GHz",
            &runtime::figure8(),
            1024 * 1024,
            "MB",
        )),
        "hwcost" => Some(hwcost::render()),
        "qoa" => Some(qoa_sweep::render(&qoa_sweep::default_sweep(60, 2024))),
        "schedules" => Some(scheduling::render(10, 2024)),
        "buffer_sizing" => Some(buffer_sizing::render()),
        "swarm" => Some(swarm_mobility::render(&swarm_mobility::default_sweep(2024))),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty()
        || args
            .iter()
            .any(|a| a == "list" || a == "--help" || a == "-h")
    {
        eprintln!("usage: repro <experiment...|all|list>");
        eprintln!("available experiments:");
        for (id, description) in EXPERIMENTS {
            eprintln!("  {id:<10} {description}");
        }
        return;
    }

    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let mut unknown = false;
    for id in selected {
        match run_experiment(id) {
            Some(output) => {
                println!("==================================================================");
                println!("{output}");
            }
            None => {
                eprintln!("unknown experiment `{id}` (try `repro list`)");
                unknown = true;
            }
        }
    }
    if unknown {
        std::process::exit(2);
    }
}
