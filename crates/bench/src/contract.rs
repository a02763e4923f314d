//! The provider contract check the test suites share.
//!
//! [`PreferenceProvider::support`] describes one user's column as its
//! support entries plus a default. [`assert_support_contract`] checks a
//! provider's support against its own per-item `apref`, so one check
//! covers every provider: raw ratings, user CF, the live layer's epoch
//! provider and the trait's default.

use greca_cf::PreferenceProvider;
use greca_dataset::{ItemId, UserId};

/// Assert that `provider`'s support of `u` over `items` (strictly
/// ascending) keeps the contract, bit for bit:
///
/// * support positions ascend strictly and stay in bounds;
/// * the support plus the default run equals per-item `apref`;
/// * the answer over `items` is unchanged when the itemset also reaches
///   past the catalog of `catalog` items.
pub fn assert_support_contract(
    provider: &dyn PreferenceProvider,
    u: UserId,
    items: &[ItemId],
    catalog: usize,
) {
    let column = |items: &[ItemId]| -> Vec<u64> {
        let mut support = Vec::new();
        let default = provider.support(u, items, &mut support);
        assert!(
            support.windows(2).all(|w| w[0].0 < w[1].0),
            "support positions ascend strictly: {u}, {items:?}"
        );
        let mut column = vec![default.to_bits(); items.len()];
        for (d, s) in support {
            assert!((d as usize) < items.len(), "support position in bounds");
            column[d as usize] = s.to_bits();
        }
        let per_item: Vec<u64> = items
            .iter()
            .map(|&i| provider.apref(u, i).to_bits())
            .collect();
        assert_eq!(column, per_item, "support ≠ apref: {u}, {items:?}");
        column
    };
    let past = items.last().map_or(0, |i| i.0 + 1).max(catalog as u32);
    let mut wide = items.to_vec();
    wide.extend([ItemId(past + 2), ItemId(past + 50)]);
    let (narrow, wide) = (column(items), column(&wide));
    assert_eq!(&wide[..items.len()], narrow, "items past the catalog: {u}");
}
