//! Microbenchmarks of the substrates the reproduction is built on: the
//! cache simulator (single accesses and the range walks the workload
//! models make), the codec, the XML/ODF parser, call marshaling, and
//! the discrete-event engine. These guard the harness's own performance —
//! a 10-minute simulated run must stay cheap in wall-clock terms.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hydra_core::call::{Call, Value};
use hydra_hw::cache::{AccessKind, Cache, CacheConfig};
use hydra_media::codec::{CodecConfig, Decoder, Encoder, GopConfig};
use hydra_media::frame::SyntheticVideo;
use hydra_odf::odf::OdfDocument;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("stream_4k_lines", |b| {
        let mut cache = Cache::new(CacheConfig::paper_l2());
        b.iter(|| {
            for i in 0..4096u64 {
                black_box(cache.access(i * 64, AccessKind::Read));
            }
        });
    });
    g.finish();
}

/// The traffic the TiVoPC models actually generate: 64 KiB buffer walks
/// over a footprint four times the L2, and device DMA claiming a buffer
/// the CPU has just written.
fn bench_cache_walks(c: &mut Criterion) {
    const WALK: usize = 64 * 1024;
    const FOOTPRINT: u64 = 1024 * 1024;
    let mut g = c.benchmark_group("cache_walks");
    g.throughput(Throughput::Elements((WALK / 64) as u64));
    g.bench_function("touch_range_64k_over_1m", |b| {
        let mut cache = Cache::new(CacheConfig::paper_l2());
        let mut base = 0u64;
        b.iter(|| {
            base = (base + WALK as u64) % FOOTPRINT;
            black_box(cache.touch_range(base, WALK, AccessKind::Read))
        });
    });
    g.bench_function("write_then_dma_invalidate_64k", |b| {
        let mut cache = Cache::new(CacheConfig::paper_l2());
        let mut base = 0u64;
        b.iter(|| {
            base = (base + WALK as u64) % FOOTPRINT;
            cache.touch_range(base, WALK, AccessKind::Write);
            black_box(cache.invalidate_range(base, WALK))
        });
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let video = SyntheticVideo::new(96, 64);
    let frames: Vec<_> = (0..9).map(|i| video.frame(i)).collect();
    let cfg = CodecConfig {
        quantizer: 6,
        gop: GopConfig::ibbp(),
    };
    let encoded = Encoder::new(cfg).encode_sequence(&frames);
    let mut g = c.benchmark_group("codec");
    g.bench_function("encode_9_frames_96x64", |b| {
        b.iter(|| black_box(Encoder::new(cfg).encode_sequence(&frames)));
    });
    g.bench_function("decode_9_frames_96x64", |b| {
        b.iter(|| {
            let mut d = Decoder::new();
            let mut out = Vec::new();
            for f in &encoded {
                out.extend(d.push(f).expect("valid stream"));
            }
            out.extend(d.flush());
            black_box(out)
        });
    });
    g.finish();
}

fn bench_odf(c: &mut Criterion) {
    let odf = hydra_tivo::components::tivo_client_odfs()
        .pop()
        .expect("non-empty");
    let xml = odf.to_xml();
    c.bench_function("odf_parse", |b| {
        b.iter(|| black_box(OdfDocument::parse(&xml).expect("valid odf")));
    });
}

fn bench_call(c: &mut Criterion) {
    let call = Call::new(hydra_odf::odf::Guid(7), "push")
        .with_arg(Value::Bytes(bytes::Bytes::from(vec![0u8; 1024])))
        .with_arg(Value::U64(9));
    let wire = call.encode();
    let mut g = c.benchmark_group("call");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_1k", |b| b.iter(|| black_box(call.encode())));
    g.bench_function("decode_1k", |b| {
        b.iter(|| black_box(Call::decode(wire.clone()).expect("valid call")));
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine_100k_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0u64);
            sim.every(SimTime::ZERO, SimDuration::from_micros(10), |sim| {
                *sim.model_mut() += 1;
                *sim.model() < 100_000
            });
            sim.run();
            black_box(sim.events_executed())
        });
    });
}

criterion_group!(
    benches,
    bench_cache,
    bench_cache_walks,
    bench_codec,
    bench_odf,
    bench_call,
    bench_engine
);
criterion_main!(benches);
