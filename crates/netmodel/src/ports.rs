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
    fn known_ports_are_sorted_and_unique() {
        let mut last = 0u32;
        for &(p, _) in KNOWN_PORTS {
            assert!((p as u32) > last || last == 0 && p == 21, "unsorted at {p}");
            last = p as u32;
        }
    }
}
