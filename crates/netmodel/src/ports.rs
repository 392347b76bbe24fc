//! Port and service registry.
//!
//! The paper's tables revolve around a recurring cast of ports: Telnet 23 and
//! its alias 2323 (Mirai), SSH 22/2222, HTTP 80/8080/81/8081/8545, HTTPS
//! 443/8443/1443, RDP 3389 and DSC 3390, SMB 445, MySQL 3306, ADB 5555, VNC
//! 5900, the Ethereum JSON-RPC port 8545, MikroTik 8291, Docker 2375/2376,
//! UPnP 52869, and assorted high ports from specific campaigns.

/// A well-known port with its service name.
pub(crate) type PortService = (u16, &'static str);

/// The ports that carry names in the paper's tables and figures.
pub const KNOWN_PORTS: &[PortService] = &[
    (21, "ftp"),
    (22, "ssh"),
    (23, "telnet"),
    (25, "smtp"),
    (80, "http"),
    (81, "http-alt"),
    (110, "pop3"),
    (123, "ntp"),
    (143, "imap"),
    (443, "https"),
    (445, "smb"),
    (1023, "telnet-alt"),
    (1433, "mssql"),
    (1443, "https-alt"),
    (2222, "ssh-alt"),
    (2323, "telnet-alt-mirai"),
    (2375, "docker"),
    (2376, "docker-tls"),
    (3306, "mysql"),
    (3389, "rdp"),
    (3390, "dsc"),
    (5060, "sip"),
    (5358, "wsd"),
    (5555, "adb"),
    (5900, "vnc"),
    (6379, "redis"),
    (6789, "doly"),
    (7547, "cwmp"),
    (7574, "cwmp-alt"),
    (8080, "http-proxy"),
    (8291, "mikrotik"),
    (8443, "https-alt2"),
    (8545, "ethereum-jsonrpc"),
    (9200, "elasticsearch"),
    (52869, "upnp-soap"),
    (60023, "telnet-high"),
];

/// Service name for a port, if it is one of the tracked well-known ports.
pub fn service_name(port: u16) -> Option<&'static str> {
    KNOWN_PORTS
        .iter()
        .find(|(p, _)| *p == port)
        .map(|(_, name)| *name)
}

/// True for privileged ports (1–1023), the space §5.1 tracks coverage of.
pub const fn is_privileged(port: u16) -> bool {
    port >= 1 && port <= 1023
}

/// The "move your service off the default port" alias conventions of §5.1
/// (23→2323, 443→1443, 80→8080, 22→2222). Scanners cover both sides, which
/// is why the paper calls the practice futile.
pub(crate) const ALIAS_PAIRS: &[(u16, u16)] = &[(23, 2323), (443, 1443), (80, 8080), (22, 2222)];

/// The alias of a port under the common conventions, if any (both ways).
pub fn alias_of(port: u16) -> Option<u16> {
    for &(a, b) in ALIAS_PAIRS {
        if port == a {
            return Some(b);
        }
        if port == b {
            return Some(a);
        }
    }
    None
}

/// Ports in the same "protocol family" that multi-port scans co-target
/// (§5.1: 87% of port-80 scans also cover 8080 by 2020).
pub fn protocol_family(port: u16) -> &'static [u16] {
    match port {
        80 | 81 | 8080 | 8081 | 8000 | 8888 => &[80, 81, 8080, 8081, 8000, 8888],
        443 | 1443 | 4443 | 8443 => &[443, 1443, 4443, 8443],
        22 | 2222 | 22222 => &[22, 2222, 22222],
        23 | 2323 | 60023 => &[23, 2323, 60023],
        3389 | 3390 | 13389 => &[3389, 3390, 13389],
        _ => &[],
    }
}

/// The two ports blocked at the telescope ingress from 2017 on (§3.2).
pub const BLOCKED_PORTS: [u16; 2] = [23, 445];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_service_lookup() {
        assert_eq!(service_name(22), Some("ssh"));
        assert_eq!(service_name(8545), Some("ethereum-jsonrpc"));
        assert_eq!(service_name(3390), Some("dsc"));
        assert_eq!(service_name(60000), None);
    }

    #[test]
    fn privileged_boundaries() {
        assert!(!is_privileged(0));
        assert!(is_privileged(1));
        assert!(is_privileged(1023));
        assert!(!is_privileged(1024));
    }

    #[test]
    fn aliases_are_symmetric() {
        assert_eq!(alias_of(23), Some(2323));
        assert_eq!(alias_of(2323), Some(23));
        assert_eq!(alias_of(80), Some(8080));
        assert_eq!(alias_of(8080), Some(80));
        assert_eq!(alias_of(22), Some(2222));
        assert_eq!(alias_of(443), Some(1443));
        assert_eq!(alias_of(3306), None);
    }

    #[test]
    fn families_contain_their_members() {
        for &(a, b) in ALIAS_PAIRS {
            let fam = protocol_family(a);
            assert!(fam.contains(&a) && fam.contains(&b), "family of {a}");
            assert_eq!(protocol_family(a), protocol_family(b));
        }
        assert!(protocol_family(12345).is_empty());
    }

    #[test]
    fn known_ports_are_sorted_and_unique() {
        let mut last = 0u32;
        for &(p, _) in KNOWN_PORTS {
            assert!((p as u32) > last || last == 0 && p == 21, "unsorted at {p}");
            last = p as u32;
        }
    }

    #[test]
    fn blocked_ports_are_telnet_and_smb() {
        assert_eq!(BLOCKED_PORTS, [23, 445]);
    }
}
