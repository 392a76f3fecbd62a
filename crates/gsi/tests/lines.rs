//! The one `KEY=VALUE` line-block codec, through its public surface:
//! render and parse are inverse, the framing rule is a typed error that
//! writes nothing, and the parser takes what real MYPROXYv2 clients
//! send.

use mp_gsi::lines::{parse, push, render, FramingError};

fn pairs(text: &str) -> Result<Vec<(&str, &str)>, FramingError> {
    parse(text).collect()
}

#[test]
fn render_and_parse_are_inverse() {
    let block = render([("A", "1"), ("B", "x=y"), ("C", "")]).unwrap();
    assert_eq!(block, "A=1\nB=x=y\nC=\n");
    assert_eq!(pairs(&block).unwrap(), vec![("A", "1"), ("B", "x=y"), ("C", "")]);
    // Values keep their own leading and trailing spaces.
    assert_eq!(pairs(&render([("K", "  v  ")]).unwrap()).unwrap(), vec![("K", "  v  ")]);
}

#[test]
fn unframeable_pairs_are_typed_errors_and_write_nothing() {
    for (k, v) in [("K", "a\nINJECTED=1"), ("K\nX", "v"), ("K=X", "v")] {
        let mut out = String::from("kept\n");
        assert!(push(&mut out, k, v).is_err(), "{k:?}={v:?}");
        assert_eq!(out, "kept\n", "a refused pair must not leave a partial line");
        assert!(render([(k, v)]).is_err());
    }
    // The message is one line and names the key, not the value.
    let why = render([("BAD\nKEY", "secret-value")]).unwrap_err().to_string();
    assert!(!why.contains('\n') && why.contains("BAD\\nKEY") && !why.contains("secret-value"), "{why}");
}

#[test]
fn parse_is_tolerant_of_what_real_clients_send() {
    // Blank lines, CRLF, indented keys, a C string terminator.
    let got = pairs("A=1\r\n\n  B=2\n\tC=3\0").unwrap();
    assert_eq!(got, vec![("A", "1"), ("B", "2"), ("C", "3")]);
    assert_eq!(pairs("").unwrap(), vec![]);
    assert_eq!(pairs("\0").unwrap(), vec![]);
}

#[test]
fn a_line_without_separator_is_an_error_in_place() {
    let mut it = parse("A=1\nno-equals\nB=2");
    assert_eq!(it.next().unwrap().unwrap(), ("A", "1"));
    assert!(it.next().unwrap().is_err());
    assert!(pairs("garbage").is_err());
}
