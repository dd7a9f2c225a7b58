//! [`metric_set!`](crate::metric_set): one table row per metric, and the
//! plumbing generated from it.
//!
//! A counter has four readers — the hot path that bumps an atomic, the STATS
//! snapshot, the cross-shard totals, the Prometheus family. The table is the
//! one list they all come from; it expands to plain structs and
//! straight-line code, not a runtime registry, so every reader stays a typed
//! field access. The invocation (see the tests below, or
//! `p4lru_server::metrics`) has three blocks:
//!
//! - `atomics <attrs> <vis> struct Name { own fields }` — optional (omit it
//!   when the live counters belong to another crate). Generates the struct
//!   with one `pub AtomicU64` per row after its own fields, and
//!   `load(&self, rest: Snapshot) -> Snapshot`.
//! - `snapshot <attrs> pub struct Name { own fields }` — generates the
//!   struct with one `pub u64` per row after its own fields, whose
//!   attributes (`#[serde(default)]`) pass through; the invoking crate
//!   supplies the derives, so this crate needs no serde. Also `fold`, and
//!   `families`, which emits the named rows in table order.
//! - `rows { field: Rule, exposition; … }`. **Rule** is how `fold` combines
//!   the field across snapshots: `Sum` adds (saturating — [`crate::hist`]
//!   says why every fold here saturates), `Max` keeps the larger.
//!   **exposition** is `counter` or `gauge`, the Prometheus family name
//!   (optionally `/ scale`: `/ 1e9` serves nanoseconds as seconds) and its
//!   help text; or `stats_only` for a field STATS carries and `/metrics`
//!   deliberately does not. A trailing `, then path` calls
//!   `path(&mut Expo, &[Snapshot])` right after the row's family, for a
//!   hand-written family that must sit at that point of the document.
//!
//! The help text is also the doc of both generated fields; a row's own doc
//! comment follows it, and is where a reason the code cannot show (why a
//! row folds by `Max`) lives. A `stats_only` row has only its doc comment.

/// Declares a metric set from one table. See the [module docs](self).
#[macro_export]
macro_rules! metric_set {
    (@atomics [] $Snap:ident { $($rows:tt)* }) => {};
    (@atomics [
        $(#[$($ameta:tt)*])*
        $avis:vis struct $Atomics:ident { $($aextra:tt)* }
    ] $Snap:ident { $( $(#[doc = $doc:literal])* $field:ident )* }) => {
        $(#[$($ameta)*])*
        $avis struct $Atomics {
            $($aextra)*
            $( $(#[doc = $doc])* pub $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $Atomics {
            /// `rest` with every table field overwritten by a relaxed load
            /// of its counter: each value is exact, the set is not read
            /// under a lock — a register dump, not a transaction.
            pub fn load(&self, rest: $Snap) -> $Snap {
                $Snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                    ..rest
                }
            }
        }
    };

    (@fold Sum $into:expr, $from:expr) => { $into = $into.saturating_add($from) };
    (@fold Max $into:expr, $from:expr) => { $into = $into.max($from) };

    (@kind counter) => { "counter" };
    (@kind gauge) => { "gauge" };

    (@family $e:ident $items:ident $label:ident $field:ident stats_only) => {};
    (@family $e:ident $items:ident $label:ident $field:ident $kind:ident
        $name:literal $(/ $scale:literal)? $help:literal $(then $then:path)?
    ) => {
        $e.meta($name, $crate::metric_set!(@kind $kind), $help);
        for it in $items {
            let value = it.$field as f64 $(/ $scale)?;
            match $label {
                Some((label, value_of)) => {
                    $e.sample($name, &[(label, value_of(it).as_str())], value)
                }
                None => $e.sample($name, &[], value),
            };
        }
        $( $then($e, $items); )?
    };

    (
        $(
            atomics
            $(#[$($ameta:tt)*])*
            $avis:vis struct $Atomics:ident { $($aextra:tt)* }
        )?
        snapshot
        $(#[$($smeta:tt)*])*
        pub struct $Snap:ident { $($sextra:tt)* }
        rows {
            $(
                $(#[doc = $doc:literal])*
                $field:ident : $rule:ident, $kind:ident
                $(, $name:literal $(/ $scale:literal)?, $help:literal $(, then $then:path)?)? ;
            )*
        }
    ) => {
        $crate::metric_set!(@atomics
            [$( $(#[$($ameta)*])* $avis struct $Atomics { $($aextra)* } )?]
            $Snap { $( $(#[doc = $help] #[doc = ""])? $(#[doc = $doc])* $field )* }
        );

        $(#[$($smeta)*])*
        pub struct $Snap {
            $($sextra)*
            $( $(#[doc = $help] #[doc = ""])? $(#[doc = $doc])* pub $field: u64, )*
        }

        impl $Snap {
            /// Folds `other` into `self`, each table field by its row's
            /// rule: `Sum` adds (saturating), `Max` keeps the larger.
            /// Fields outside the table are left alone.
            pub fn fold(&mut self, other: &Self) {
                $( $crate::metric_set!(@fold $rule self.$field, other.$field); )*
            }

            /// Emits one Prometheus family per named row, in table order,
            /// with one sample per item — labelled `name="value_of(item)"`
            /// when `label` is `Some((name, value_of))`.
            pub fn families(
                e: &mut $crate::Expo,
                items: &[Self],
                label: Option<(&str, fn(&Self) -> String)>,
            ) {
                $(
                    $crate::metric_set!(@family e items label $field $kind
                        $($name $(/ $scale)? $help $(then $then)?)?);
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::Expo;
    use std::sync::atomic::Ordering;

    fn between(e: &mut Expo, items: &[PumpSnapshot]) {
        e.meta("pump_names", "gauge", "Hand-written, mid-table.");
        for it in items {
            e.sample("pump_names", &[("name", &it.name)], 1.0);
        }
    }

    metric_set! {
        atomics
        /// Live pump counters.
        #[derive(Debug, Default)]
        struct PumpCounters {
            /// Not in the table: the macro leaves it alone.
            spare: std::sync::atomic::AtomicU64,
        }

        snapshot
        /// A pump, copied.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct PumpSnapshot {
            /// Which pump.
            pub name: String,
        }

        rows {
            /// Strokes made.
            strokes: Sum, counter, "pump_strokes_total", "Strokes made.", then between;
            /// Nanoseconds spent pumping.
            busy_ns: Sum, counter, "pump_busy_seconds_total" / 1e9, "Time spent pumping.";
            /// Highest pressure seen.
            peak: Max, gauge, "pump_peak", "Highest pressure seen.";
            /// Carried by the snapshot, absent from the exposition.
            quiet: Max, stats_only;
        }
    }

    fn pump(name: &str, strokes: u64, busy_ns: u64, peak: u64, quiet: u64) -> PumpSnapshot {
        let live = PumpCounters::default();
        live.strokes.store(strokes, Ordering::Relaxed);
        live.busy_ns.store(busy_ns, Ordering::Relaxed);
        live.peak.store(peak, Ordering::Relaxed);
        live.quiet.store(quiet, Ordering::Relaxed);
        live.spare.store(99, Ordering::Relaxed);
        live.load(PumpSnapshot {
            name: name.to_string(),
            ..PumpSnapshot::default()
        })
    }

    #[test]
    fn load_copies_rows_and_keeps_the_callers_fields() {
        let p = pump("a", 3, 1_500, 7, 2);
        assert_eq!(p.name, "a");
        assert_eq!((p.strokes, p.busy_ns, p.peak, p.quiet), (3, 1_500, 7, 2));
    }

    #[test]
    fn fold_sums_or_maxes_by_rule_and_saturates() {
        let mut total = pump("total", 3, 10, 7, 2);
        total.fold(&pump("b", u64::MAX, 5, 4, 9));
        assert_eq!(total.strokes, u64::MAX, "Sum saturates instead of wrapping");
        assert_eq!(total.busy_ns, 15);
        assert_eq!(total.peak, 7, "Max keeps the larger");
        assert_eq!(total.quiet, 9, "stats_only rows still fold");
        assert_eq!(
            total.name, "total",
            "fields outside the table are untouched"
        );
    }

    #[test]
    fn families_follow_table_order_with_scale_label_and_then_hook() {
        let items = [pump("a", 3, 1_500, 7, 2), pump("b", 1, 0, 9, 0)];
        let mut e = Expo::new();
        PumpSnapshot::families(&mut e, &items, Some(("pump", |p| p.name.clone())));
        assert_eq!(
            e.finish(),
            "# HELP pump_strokes_total Strokes made.\n\
             # TYPE pump_strokes_total counter\n\
             pump_strokes_total{pump=\"a\"} 3\n\
             pump_strokes_total{pump=\"b\"} 1\n\
             # HELP pump_names Hand-written, mid-table.\n\
             # TYPE pump_names gauge\n\
             pump_names{name=\"a\"} 1\n\
             pump_names{name=\"b\"} 1\n\
             # HELP pump_busy_seconds_total Time spent pumping.\n\
             # TYPE pump_busy_seconds_total counter\n\
             pump_busy_seconds_total{pump=\"a\"} 0.0000015\n\
             pump_busy_seconds_total{pump=\"b\"} 0\n\
             # HELP pump_peak Highest pressure seen.\n\
             # TYPE pump_peak gauge\n\
             pump_peak{pump=\"a\"} 7\n\
             pump_peak{pump=\"b\"} 9\n"
        );

        let mut e = Expo::new();
        PumpSnapshot::families(&mut e, &items[..1], None);
        let text = e.finish();
        assert!(text.contains("pump_peak 7\n"), "{text}");
        assert!(!text.contains("quiet"), "stats_only rows have no family");
    }
}
