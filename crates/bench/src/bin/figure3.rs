//! Prints the clock-annotated read-mode sequence diagram of Figure 3
//! and checks it against a trace of the executing SystemC model.

use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};
use la1_core::uml::read_mode_sequence;

fn main() {
    let seq = read_mode_sequence();
    println!("Figure 3. Sequence Diagram for the Reading Mode.\n");
    print!("{}", seq.render());

    let mut la1 = LaSystemC::new(&LaConfig::new(1));
    la1.enable_trace();
    la1.cycle(&[BankOp::read(0, 0)]);
    la1.cycle(&[]);
    la1.cycle(&[]);
    println!("\nexecuted SystemC trace:");
    for m in la1.trace() {
        println!(
            "  {} -> {} : {}[{}]()@{}",
            m.from, m.to, m.method, m.cycle, m.clock
        );
    }
    match seq.check(&la1.trace()) {
        Ok(()) => println!("\ntrace conforms to the Figure 3 scenario"),
        Err(e) => println!("\nMISMATCH: {e}"),
    }
}
