//! Serve demo: the full `greca-serve` stack end to end — a TCP server
//! over a `LiveEngine`, concurrent client threads mixing cached
//! queries, cold queries and live rating ingestion, then a `stats`
//! dump.
//!
//! What to watch in the output:
//!
//! * the **cache dispositions** — the first ask for a group is a
//!   `miss` (one kernel run), repeats are `hit`s served inline off the
//!   connection thread, and an `ingest` (epoch swap) that touches a
//!   group member flips that group's next ask back to `miss`: the
//!   cache is epoch-scoped and invalidated selectively through
//!   `LiveEngine::on_publish_delta`;
//! * the **identity check** — a served payload is compared bit-for-bit
//!   against a direct `PinnedEpoch::engine()` run;
//! * the **stats verb** — per-verb latency histograms, cache hit rate,
//!   epoch lag and the substrate's memory footprint, straight from the
//!   server.
//!
//! Run with: `cargo run --release --example serve_demo`

use greca::prelude::*;
use greca::serve::{Client, GrecaServer, Json, ServeConfig};

fn main() {
    // --- 1. A world and a live engine -----------------------------------
    let ml = MovieLensConfig::small().generate();
    let net = SocialConfig::tiny().generate();
    let timeline =
        Timeline::discretize(0, net.horizon(), Granularity::Season).expect("valid horizon");
    let universe: Vec<UserId> = net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&net), &universe, &timeline);
    let catalog: Vec<ItemId> = ml.matrix.items().collect();
    let live =
        LiveEngine::new(&population, LiveModel::Raw, &ml.matrix, &catalog).expect("finite ratings");
    println!(
        "world: {} users × {} items, {} periods",
        universe.len(),
        catalog.len(),
        timeline.num_periods()
    );

    // --- 2. Bind the server on an ephemeral port -------------------------
    let server = GrecaServer::bind(&live, ServeConfig::default()).expect("bind");
    let handle = server.handle();
    println!("serving on {}", handle.addr());

    std::thread::scope(|s| {
        s.spawn(|| server.run());

        // --- 3. Concurrent clients --------------------------------------
        let client_threads: Vec<_> = (0..3)
            .map(|c| {
                let addr = handle.addr();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let group: Vec<u32> = vec![c, c + 3, c + 6];
                    let mut dispositions = Vec::new();
                    for round in 0..4 {
                        let reply = client.query(&group, None, Some(5)).expect("query");
                        dispositions.push(format!(
                            "epoch {} {}",
                            reply.get("epoch").and_then(Json::as_u64).unwrap_or(0),
                            reply.get("cache").and_then(Json::as_str).unwrap_or("?"),
                        ));
                        if round == 1 && c == 0 {
                            // One client streams a rating mid-flight:
                            // the publish invalidates everyone's cache.
                            client
                                .ingest(&[(c, (c + 11) % 40, 5.0, 1_000 + i64::from(c))])
                                .expect("ingest");
                        }
                    }
                    (c, dispositions)
                })
            })
            .collect();
        for t in client_threads {
            let (c, dispositions) = t.join().expect("client thread");
            println!("client {c}: [{}]", dispositions.join(", "));
        }

        // --- 4. Served == direct, bit for bit ----------------------------
        let mut client = Client::connect(handle.addr()).expect("connect");
        let group = Group::new(vec![UserId(1), UserId(4), UserId(7)]).expect("group");
        let served = client.query(&[1, 4, 7], None, Some(5)).expect("query");
        let pin = live.pin();
        let direct = pin.engine().query(&group).top(5).run().expect("direct run");
        let identical = served
            .get("items")
            .and_then(Json::as_array)
            .map(|items| {
                items.len() == direct.items.len()
                    && items.iter().zip(&direct.items).all(|(got, want)| {
                        got.get("item").and_then(Json::as_u64) == Some(u64::from(want.item.0))
                            && got.get("lb").and_then(Json::as_f64).map(f64::to_bits)
                                == Some(want.lb.to_bits())
                    })
            })
            .unwrap_or(false);
        println!(
            "served == direct engine run at epoch {}: {identical}",
            pin.epoch()
        );
        assert!(identical, "serving must not change results");

        // --- 5. Observability --------------------------------------------
        let stats = client.stats().expect("stats");
        let cache = stats.get("cache").expect("cache section");
        let memory = stats.get("memory").expect("memory section");
        println!(
            "cache: hit rate {:.0}%, {} invalidations | substrate {} KiB | epoch lag {}",
            cache.get("hit_rate").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
            cache
                .get("invalidations")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            memory
                .get("total_bytes")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                / 1024,
            cache.get("epoch_lag").and_then(Json::as_u64).unwrap_or(0),
        );

        handle.shutdown();
    });
    println!("drained and shut down cleanly");
}
