//! Prints the LA-1 interface structure of Figure 1 (4 banks): the pin
//! inventory and per-bank organization.

use la1_core::spec::{LaConfig, PinDir};

fn main() {
    let cfg = LaConfig::new(4);
    println!("Figure 1. Look-Aside Interface (4 Banks)\n");
    println!("{:<8} {:>6} {:>10}  Purpose", "Pin", "Width", "Direction");
    println!("{}", "-".repeat(76));
    for pin in cfg.pins() {
        println!(
            "{:<8} {:>6} {:>10}  {}",
            pin.name,
            pin.width,
            match pin.dir {
                PinDir::HostOut => "host->LA1",
                PinDir::SlaveOut => "LA1->host",
            },
            pin.purpose
        );
    }
    println!(
        "\n{} banks x {} words x {} bits; read latency {} cycles; DDR transfers {}+{} bits/edge",
        cfg.banks,
        cfg.words_per_bank,
        cfg.word_width,
        la1_core::spec::READ_LATENCY,
        cfg.half_width(),
        cfg.parity_bits(),
    );
}
