//! CampusBench: one end-to-end benchmark for the campus as data source
//! and as testbed. See `README.md` in this directory.

pub mod campus_day;
pub mod compose;
pub mod fleet;
pub mod gen;
pub mod harness;
pub mod metrics;
pub mod opmix;
pub mod road;
pub mod store_console;
pub mod trace;
