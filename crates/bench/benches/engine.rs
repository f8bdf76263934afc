//! Micro-benchmarks of the simulation substrate: event throughput of the
//! discrete-event engine, rate-resource scheduling, fabric transfers, and
//! the §6.2 water-filling optimizer.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use draid_core::reducer::water_fill;
use draid_net::{Fabric, NicSpec};
use draid_sim::{ByteRate, Engine, RateResource, SimTime};

fn bench_engine_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    const EVENTS: u64 = 100_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("fire_100k_events", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            let mut world = 0u64;
            for i in 0..EVENTS {
                engine.schedule_at(SimTime::from_nanos(i * 13 % 1_000_000), |w, _| *w += 1);
            }
            engine.run(&mut world);
            black_box(world)
        })
    });
    g.bench_function("cascading_events", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            let mut world = 0u64;
            fn chain(w: &mut u64, eng: &mut Engine<u64>) {
                *w += 1;
                if *w < 10_000 {
                    eng.schedule_in(SimTime::from_nanos(100), chain);
                }
            }
            engine.schedule_in(SimTime::from_nanos(100), chain);
            engine.run(&mut world);
            black_box(world)
        })
    });
    // The same-instant FIFO fast path under a deep heap backlog: the shape
    // simperf's headline scenario measures against the baseline engine.
    g.bench_function("same_instant_chain_10k_backlog", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            let mut world = 0u64;
            fn chain(w: &mut u64, eng: &mut Engine<u64>) {
                *w += 1;
                if *w < 10_000 {
                    eng.schedule_in(SimTime::ZERO, chain);
                } else {
                    eng.stop();
                }
            }
            for i in 0..10_000u64 {
                engine.schedule_at(SimTime::from_micros(1_000 + i), |_, _| {});
            }
            engine.schedule_at(SimTime::from_nanos(1), chain);
            engine.run(&mut world);
            black_box(world)
        })
    });
    g.bench_function("timer_arm_cancel_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            let mut world = 0u64;
            fn arm(eng: &mut Engine<u64>, remaining: u64) {
                let deadline = eng.schedule_timer_in(SimTime::from_micros(100), |_, _| {});
                eng.schedule_in(SimTime::from_nanos(200), move |w: &mut u64, eng| {
                    *w += 1;
                    eng.cancel(deadline);
                    if remaining > 0 {
                        arm(eng, remaining - 1);
                    }
                });
            }
            arm(&mut engine, 10_000 - 1);
            engine.run(&mut world);
            black_box(world)
        })
    });
    g.finish();
}

fn bench_resources(c: &mut Criterion) {
    let mut g = c.benchmark_group("resources");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("rate_resource_10k_serves", |b| {
        b.iter(|| {
            let mut r = RateResource::new(ByteRate::from_gbps(92.0));
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                t = r.serve(t, 128 * 1024).end;
            }
            black_box(t)
        })
    });
    g.bench_function("fabric_10k_transfers", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new();
            let a = fabric.add_node("a", NicSpec::cx5_100g());
            let z = fabric.add_node("z", NicSpec::cx5_100g());
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                t = fabric
                    .try_transfer(t, a, z, 128 * 1024)
                    .expect("links are up")
                    .end;
            }
            black_box(t)
        })
    });
    g.finish();
}

fn bench_water_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("reducer");
    let bandwidths: Vec<f64> = (0..18)
        .map(|i| if i % 3 == 0 { 2_875.0 } else { 11_500.0 })
        .collect();
    g.bench_function("water_fill_18_members", |b| {
        b.iter(|| water_fill(black_box(&bandwidths), black_box(40_000.0)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine_events, bench_resources, bench_water_fill
}
criterion_main!(benches);
