//! Embedded public-suffix list.
//!
//! The paper computes effective second-level domains (e2LDs) "by leveraging
//! the Mozilla Public Suffix List augmented with a large custom list of DNS
//! zones owned by dynamic DNS providers" (Section II-A, footnote 2). The real
//! PSL is tens of thousands of entries; this embedded subset covers the
//! suffix shapes the synthetic traffic generator emits plus the common ICANN
//! suffixes, and — crucially for the reproduction — the *augmentation* with
//! dynamic-DNS / free-registration zones, which changes where the e2LD
//! boundary falls for abused subdomains.
//!
//! Two distinct sets are exposed:
//!
//! - [`is_public_suffix`] — suffixes below which registrations happen. The
//!   e2LD of `www.bbc.co.uk` is `bbc.co.uk` because `co.uk` is a public
//!   suffix; the e2LD of `evil.dyndns.example` is `evil.dyndns.example`
//!   because the dynamic-DNS zone `dyndns.example` is treated as a suffix.
//! - [`is_known_free_hosting`] — e2LDs that offer free subdomain
//!   registration but that the paper's whitelist-filtering *failed to
//!   identify* (e.g. `egloos.com`, `uol.com.br` in Fig. 9). These stay
//!   ordinary e2LDs, so their abused subdomains inherit a whitelisted e2LD
//!   and surface as (apparent) false positives — exactly the noise analyzed
//!   in Section IV-D.

/// Multi-label ICANN public suffixes embedded in the binary.
///
/// Single-label TLDs are handled structurally (the last label is always a
/// suffix), so only multi-label suffixes need listing.
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk", "com.br", "net.br", "org.br",
    "gov.br", "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp", "com.au", "net.au", "org.au", "edu.au",
    "gov.au", "co.kr", "or.kr", "re.kr", "go.kr", "com.cn", "net.cn", "org.cn", "gov.cn", "edu.cn",
    "co.in", "net.in", "org.in", "gen.in", "firm.in", "com.ru", "net.ru", "org.ru", "msk.ru",
    "spb.ru", "com.tr", "net.tr", "org.tr", "com.mx", "net.mx", "org.mx", "co.za", "net.za",
    "org.za", "com.ar", "net.ar", "org.ar", "co.nz", "net.nz", "org.nz", "com.tw", "net.tw",
    "org.tw", "com.ua", "net.ua", "org.ua", "com.pl", "net.pl", "org.pl", "com.sg", "com.my",
    "com.hk", "com.eg", "com.sa", "co.il", "org.il", "ac.il", "com.vn", "net.vn", "co.th", "or.th",
    "ac.th", "com.ph", "net.ph", "com.pk", "net.pk", "com.ng", "org.ng", "co.ke", "or.ke",
];

/// Wildcard PSL rules (`*.ck` and friends): *every* direct child label of
/// these bases is itself a public suffix, so registrations happen one
/// level deeper.
const WILDCARD_BASES: &[&str] = &["ck", "bd", "er", "fk", "mm", "kawasaki.jp"];

/// Exception rules (`!www.ck`): names a wildcard would classify as public
/// suffixes but that are in fact ordinary registrable domains.
const WILDCARD_EXCEPTIONS: &[&str] = &["www.ck", "city.kawasaki.jp"];

/// Dynamic-DNS and free-registration zones that augment the PSL, mirroring
/// the paper's custom list of dynamic-DNS provider zones. Subdomains of
/// these zones are independently registrable, so the e2LD boundary moves one
/// label deeper.
const DYNAMIC_DNS_ZONES: &[&str] = &[
    "dyndns.org",
    "dyndns.example",
    "no-ip.example",
    "duckdns.example",
    "dynalias.example",
    "hopto.example",
    "zapto.example",
    "ddns.example",
    "wordpress.example",
    "blogspot.example",
    "tumblr.example",
    "dyn.example",
];

/// Free-hosting e2LDs that the paper's whitelist filtering *failed* to
/// exclude (Section IV-D, Fig. 9). These are deliberately **not** treated as
/// public suffixes: their subdomains share the (whitelisted) e2LD, which is
/// what makes abused subdomains count as false positives.
const LEAKY_FREE_HOSTING_E2LDS: &[&str] = &[
    "egloos.example",
    "freehostia.example",
    "uol.example.br",
    "interfree.example",
    "narod.example",
    "xtgem.example",
    "luxup.example",
    "sites-free.example",
];

/// Returns `true` if `suffix` (a dot-separated name with no leading dot) is a
/// public suffix under the embedded augmented list.
///
/// Any single label (TLD) is a public suffix. Multi-label names are suffixes
/// if they appear in the embedded ICANN subset or the dynamic-DNS
/// augmentation.
///
/// # Example
///
/// ```
/// assert!(segugio_model::psl::is_public_suffix("com"));
/// assert!(segugio_model::psl::is_public_suffix("co.uk"));
/// assert!(segugio_model::psl::is_public_suffix("dyndns.org"));
/// assert!(!segugio_model::psl::is_public_suffix("bbc.co.uk"));
/// ```
pub fn is_public_suffix(suffix: &str) -> bool {
    if suffix.is_empty() {
        return false;
    }
    if !suffix.contains('.') {
        return true;
    }
    if WILDCARD_EXCEPTIONS.contains(&suffix) {
        // `!www.ck`-style exception: registrable despite the wildcard.
        return false;
    }
    if let Some((_, base)) = suffix.split_once('.') {
        if WILDCARD_BASES.contains(&base) {
            // `*.ck`-style rule: any direct child of the base is a suffix.
            return true;
        }
    }
    MULTI_LABEL_SUFFIXES.contains(&suffix) || DYNAMIC_DNS_ZONES.contains(&suffix)
}

/// Returns `true` if `zone` is one of the dynamic-DNS provider zones in the
/// PSL augmentation.
pub fn is_dynamic_dns_zone(zone: &str) -> bool {
    DYNAMIC_DNS_ZONES.contains(&zone)
}

/// Returns `true` if `e2ld` is one of the known "leaky" free-hosting e2LDs
/// that slipped through the whitelist filtering in the paper's deployment.
///
/// This predicate exists so the false-positive analysis (Table III) can
/// report how many apparent FPs fall under such zones; it is *not* consulted
/// during e2LD extraction.
pub fn is_known_free_hosting(e2ld: &str) -> bool {
    LEAKY_FREE_HOSTING_E2LDS.contains(&e2ld)
}

/// Computes the effective second-level domain of `name`, returned as a byte
/// offset into `name`: `&name[offset..]` is the e2LD.
///
/// The e2LD is the public suffix plus one additional label. If the whole
/// name is itself a public suffix, or has a single label, the whole name is
/// returned (offset 0).
pub(crate) fn e2ld_offset(name: &str) -> usize {
    // Walk label boundaries from the right; find the longest public suffix,
    // then extend by one label.
    // segugio-lint: allow(H4, once per parsed name: the log reader parses only qnames its table misses)
    let mut boundaries: Vec<usize> = vec![0];
    for (i, b) in name.bytes().enumerate() {
        if b == b'.' {
            boundaries.push(i + 1);
        }
    }
    // boundaries[k] = start offset of the k-th label.
    // Find smallest k such that &name[boundaries[k]..] is a public suffix.
    // A matched exception rule (`!www.ck`) is itself the registrable name
    // (PSL: "the public suffix is the exception with the leftmost label
    // removed").
    let mut suffix_idx = None;
    for (k, &off) in boundaries.iter().enumerate() {
        if WILDCARD_EXCEPTIONS.contains(&&name[off..]) {
            return off;
        }
        if is_public_suffix(&name[off..]) {
            suffix_idx = Some(k);
            break;
        }
    }
    match suffix_idx {
        // One label before the suffix, if there is one.
        Some(k) if k > 0 => boundaries[k - 1],
        // The entire name is a suffix (e.g. querying "com" directly).
        Some(_) => 0,
        // No recognized suffix: fall back to the last two labels.
        None => {
            if boundaries.len() >= 2 {
                boundaries[boundaries.len() - 2]
            } else {
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_label_is_suffix() {
        assert!(is_public_suffix("com"));
        assert!(is_public_suffix("zz"));
    }

    #[test]
    fn known_multi_label_suffixes() {
        assert!(is_public_suffix("co.uk"));
        assert!(is_public_suffix("com.br"));
        assert!(!is_public_suffix("example.co.uk"));
    }

    #[test]
    fn dynamic_dns_zones_are_suffixes() {
        assert!(is_public_suffix("dyndns.org"));
        assert!(is_dynamic_dns_zone("dyndns.org"));
        assert!(!is_dynamic_dns_zone("bbc.co.uk"));
    }

    #[test]
    fn leaky_free_hosting_are_not_suffixes() {
        assert!(!is_public_suffix("egloos.example"));
        assert!(is_known_free_hosting("egloos.example"));
        assert!(!is_known_free_hosting("bbc.co.uk"));
    }

    #[test]
    fn wildcard_rules() {
        // *.ck: every direct child of ck is a public suffix...
        assert!(is_public_suffix("anything.ck"));
        assert!(is_public_suffix("biz.ck"));
        // ...so registrations live one level deeper.
        assert_eq!(&"shop.biz.ck"[e2ld_offset("shop.biz.ck")..], "shop.biz.ck");
        assert_eq!(
            &"www.shop.biz.ck"[e2ld_offset("www.shop.biz.ck")..],
            "shop.biz.ck"
        );
        // Multi-label wildcard base.
        assert!(is_public_suffix("chuo.kawasaki.jp"));
        assert_eq!(
            &"site.chuo.kawasaki.jp"[e2ld_offset("site.chuo.kawasaki.jp")..],
            "site.chuo.kawasaki.jp"
        );
    }

    #[test]
    fn wildcard_exceptions() {
        // !www.ck: registrable despite *.ck.
        assert!(!is_public_suffix("www.ck"));
        assert_eq!(&"www.ck"[e2ld_offset("www.ck")..], "www.ck");
        assert_eq!(&"foo.www.ck"[e2ld_offset("foo.www.ck")..], "www.ck");
        assert!(!is_public_suffix("city.kawasaki.jp"));
        assert_eq!(
            &"a.city.kawasaki.jp"[e2ld_offset("a.city.kawasaki.jp")..],
            "city.kawasaki.jp"
        );
    }

    #[test]
    fn e2ld_offsets() {
        assert_eq!(
            &"www.bbc.co.uk"[e2ld_offset("www.bbc.co.uk")..],
            "bbc.co.uk"
        );
        assert_eq!(&"bbc.co.uk"[e2ld_offset("bbc.co.uk")..], "bbc.co.uk");
        assert_eq!(
            &"a.b.example.com"[e2ld_offset("a.b.example.com")..],
            "example.com"
        );
        assert_eq!(&"example.com"[e2ld_offset("example.com")..], "example.com");
        assert_eq!(&"com"[e2ld_offset("com")..], "com");
        // Dynamic DNS: the registrable name is one label under the zone.
        assert_eq!(
            &"evil.dyndns.org"[e2ld_offset("evil.dyndns.org")..],
            "evil.dyndns.org"
        );
        assert_eq!(
            &"x.evil.dyndns.org"[e2ld_offset("x.evil.dyndns.org")..],
            "evil.dyndns.org"
        );
        // Leaky free hosting: e2LD stays at the provider.
        assert_eq!(
            &"abc.egloos.example"[e2ld_offset("abc.egloos.example")..],
            "egloos.example"
        );
    }
}
