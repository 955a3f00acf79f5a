//! jiffy-server: a TCP key-value front-end over the elastic Jiffy map.
//!
//! The serving stack turns N independent network clients into the kind
//! of traffic Jiffy's batch-update protocol (KobusKW22 §3.3) is built
//! for: each io thread runs the requests it decodes itself and
//! *coalesces* the single-key puts of one sweep over its connections
//! into one Jiffy batch, so one pending-version install pays for many
//! client writes. See [`server`] for the thread architecture,
//! [`protocol`] for the wire format, [`queue`] for the acceptor's
//! hand-off queue (`std::sync::mpsc` behind the three names the server
//! uses), and [`client`] for a small blocking client.
//!
//! ```no_run
//! use std::sync::Arc;
//! use jiffy_shard::{ElasticJiffy, Router};
//! use jiffy::JiffyConfig;
//!
//! let map = Arc::new(ElasticJiffy::with_router(
//!     Router::range_uniform(4, 1 << 20),
//!     JiffyConfig::default(),
//! ));
//! let server = jiffy_server::serve(map, "127.0.0.1:0", Default::default()).unwrap();
//! let mut client = jiffy_server::Client::connect(server.addr()).unwrap();
//! client.put(7, 42).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some(42));
//! server.shutdown();
//! ```
#![warn(missing_docs)]

pub mod client;
mod poll;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, ClientError};
pub use jiffy_dur::Durability;
pub use protocol::{Request, Response, StatsSnapshot, WireError};
pub use server::{serve, DurableStore, Map, ServerConfig, ServerHandle, ServerStats};
