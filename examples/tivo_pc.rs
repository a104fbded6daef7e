//! TiVoPC: the paper's §6 case study, end to end.
//!
//! 1. Deploy the TiVo component graph through the HYDRA runtime and show
//!    that the Figure 8 layout falls out of the ODF constraints.
//! 2. Run the three video-server variants and print the jitter / CPU /
//!    L2 comparison (Figures 9–10, Tables 2–3).
//! 3. Run the two client variants (Table 4).
//! 4. Record a movie through the smart disk and play it back, verifying
//!    the decoded pixels.
//!
//! Run with: `cargo run --release --example tivo_pc`

use hydra::core::device::DeviceRegistry;
use hydra::core::runtime::{Runtime, RuntimeConfig};
use hydra::sim::time::SimDuration;
use hydra::tivo::components::{guids, register_tivo_client};
use hydra::tivo::experiments::{fig10_tab3, fig9_tab2, tab4_client, SuiteConfig};
use hydra::tivo::playback::{run_record_playback, PlaybackConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Deployment: the Figure 8 layout. ---------------------------
    let mut rt = Runtime::new(DeviceRegistry::testbed(), RuntimeConfig::default());
    register_tivo_client(&mut rt)?;
    rt.create_offcode(guids::GUI, hydra::sim::time::SimTime::ZERO)?;

    println!("TiVoPC offloading layout (Figure 8):");
    for (name, guid) in [
        ("tivo.Gui", guids::GUI),
        ("tivo.Streamer.Net", guids::STREAMER_NET),
        ("tivo.Streamer.Disk", guids::STREAMER_DISK),
        ("tivo.Decoder", guids::DECODER),
        ("tivo.Display", guids::DISPLAY),
        ("tivo.File", guids::FILE),
    ] {
        let id = rt.get_offcode(guid).expect("deployed");
        println!("  {:<20} -> {}", name, rt.device_of(id).expect("placed"));
    }

    // --- 2 + 3. The measured experiments (short runs; use the repro
    // binary with --full for the paper's 10-minute durations). ----------
    let cfg = SuiteConfig {
        duration: SimDuration::from_secs(20),
        seed: 42,
    };
    println!("\n{}", fig9_tab2(&cfg));
    println!("{}", fig10_tab3(&cfg));
    println!("{}", tab4_client(&cfg));

    // --- 4. Record + playback with real bytes. -------------------------
    let run = run_record_playback(PlaybackConfig::default())?;
    println!(
        "Record/playback: {} frames, worst PSNR {:.1} dB, pacing std {:.3} ms",
        run.frames_played,
        run.worst_psnr_db,
        run.playback_gaps_ms.summary().std_dev
    );
    Ok(())
}
