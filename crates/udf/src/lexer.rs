//! Indentation-aware lexer for the Python-subset UDF language.
//!
//! Produces a flat token stream with explicit `Newline` / `Indent` / `Dedent`
//! tokens, exactly like CPython's tokenizer, so the parser can treat blocks
//! structurally. Indentation must be spaces (generated code uses 4).

use graceful_common::{GracefulError, Result};

/// Tokens of the UDF language.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // Keywords.
    Def,
    If,
    Elif,
    Else,
    For,
    While,
    In,
    Return,
    And,
    Or,
    Not,
    True,
    False,
    NoneKw,
    // Operators / punctuation.
    Plus,
    Minus,
    Star,
    DoubleStar,
    Slash,
    DoubleSlash,
    Percent,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    Assign,
    LParen,
    RParen,
    Comma,
    Colon,
    Dot,
    // Layout.
    Newline,
    Indent,
    Dedent,
    Eof,
}

/// A token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    pub tok: Tok,
    pub line: usize,
}

fn keyword(ident: &str) -> Option<Tok> {
    Some(match ident {
        "def" => Tok::Def,
        "if" => Tok::If,
        "elif" => Tok::Elif,
        "else" => Tok::Else,
        "for" => Tok::For,
        "while" => Tok::While,
        "in" => Tok::In,
        "return" => Tok::Return,
        "and" => Tok::And,
        "or" => Tok::Or,
        "not" => Tok::Not,
        "True" => Tok::True,
        "False" => Tok::False,
        "None" => Tok::NoneKw,
        _ => return None,
    })
}

/// Tokenize UDF source code.
pub fn lex(source: &str) -> Result<Vec<SpannedTok>> {
    let mut out: Vec<SpannedTok> = Vec::new();
    // Open indents above column 0; the base is never popped, so it is no entry.
    let mut indents: Vec<usize> = Vec::new();
    let top = |indents: &[usize]| indents.last().copied().unwrap_or(0);
    for (line_no, raw_line) in source.lines().enumerate() {
        let line_no = line_no + 1;
        // Strip comments (the first `#` outside any string literal).
        let line = match comment_start(raw_line) {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        if line.trim().is_empty() {
            continue; // blank lines carry no layout information
        }
        let indent = line.len() - line.trim_start_matches(' ').len();
        if line.as_bytes().first() == Some(&b'\t') {
            return Err(GracefulError::Parse {
                line: line_no,
                message: "tabs are not supported; indent with spaces".into(),
            });
        }
        if indent > top(&indents) {
            indents.push(indent);
            out.push(SpannedTok { tok: Tok::Indent, line: line_no });
        } else {
            while indent < top(&indents) {
                indents.pop();
                out.push(SpannedTok { tok: Tok::Dedent, line: line_no });
            }
            if indent != top(&indents) {
                return Err(GracefulError::Parse {
                    line: line_no,
                    message: "inconsistent indentation".into(),
                });
            }
        }
        lex_line(line.trim_start_matches(' '), line_no, &mut out)?;
        out.push(SpannedTok { tok: Tok::Newline, line: line_no });
    }
    for _ in indents {
        out.push(SpannedTok { tok: Tok::Dedent, line: usize::MAX });
    }
    out.push(SpannedTok { tok: Tok::Eof, line: usize::MAX });
    Ok(out)
}

/// Byte offset of the first `#` outside any string literal, if any.
fn comment_start(line: &str) -> Option<usize> {
    let mut in_str = false;
    let mut quote = ' ';
    for (i, c) in line.char_indices() {
        if in_str {
            if c == quote {
                in_str = false;
            }
        } else if c == '\'' || c == '"' {
            in_str = true;
            quote = c;
        } else if c == '#' {
            return Some(i);
        }
    }
    None
}

fn lex_line(line: &str, line_no: usize, out: &mut Vec<SpannedTok>) -> Result<()> {
    let bytes = line.as_bytes();
    let mut i = 0;
    let err = |msg: String| GracefulError::Parse { line: line_no, message: msg };
    let push = |out: &mut Vec<SpannedTok>, tok: Tok| out.push(SpannedTok { tok, line: line_no });
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' => i += 1,
            '(' => {
                push(out, Tok::LParen);
                i += 1;
            }
            ')' => {
                push(out, Tok::RParen);
                i += 1;
            }
            ',' => {
                push(out, Tok::Comma);
                i += 1;
            }
            ':' => {
                push(out, Tok::Colon);
                i += 1;
            }
            '.' if i + 1 < bytes.len() && !(bytes[i + 1] as char).is_ascii_digit() => {
                push(out, Tok::Dot);
                i += 1;
            }
            '+' => {
                push(out, Tok::Plus);
                i += 1;
            }
            '-' => {
                push(out, Tok::Minus);
                i += 1;
            }
            '*' => {
                if bytes.get(i + 1) == Some(&b'*') {
                    push(out, Tok::DoubleStar);
                    i += 2;
                } else {
                    push(out, Tok::Star);
                    i += 1;
                }
            }
            '/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    push(out, Tok::DoubleSlash);
                    i += 2;
                } else {
                    push(out, Tok::Slash);
                    i += 1;
                }
            }
            '%' => {
                push(out, Tok::Percent);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(out, Tok::Le);
                    i += 2;
                } else {
                    push(out, Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(out, Tok::Ge);
                    i += 2;
                } else {
                    push(out, Tok::Gt);
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(out, Tok::EqEq);
                    i += 2;
                } else {
                    push(out, Tok::Assign);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(out, Tok::NotEq);
                    i += 2;
                } else {
                    return Err(err("unexpected '!'".into()));
                }
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(err("unterminated string literal".into()));
                }
                push(out, Tok::Str(line[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || (c == '.' && i + 1 < bytes.len()) => {
                let start = i;
                let mut saw_dot = false;
                let mut saw_exp = false;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == '.' && !saw_dot && !saw_exp {
                        saw_dot = true;
                        i += 1;
                    } else if (d == 'e' || d == 'E')
                        && !saw_exp
                        && i > start
                        && i + 1 < bytes.len()
                        && ((bytes[i + 1] as char).is_ascii_digit()
                            || bytes[i + 1] == b'-'
                            || bytes[i + 1] == b'+')
                    {
                        saw_exp = true;
                        i += 1;
                        if bytes[i] == b'-' || bytes[i] == b'+' {
                            i += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = &line[start..i];
                if saw_dot || saw_exp {
                    let v: f64 =
                        text.parse().map_err(|_| err(format!("bad float literal {text}")))?;
                    push(out, Tok::Float(v));
                } else {
                    let v: i64 =
                        text.parse().map_err(|_| err(format!("bad int literal {text}")))?;
                    push(out, Tok::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let ident = &line[start..i];
                match keyword(ident) {
                    Some(kw) => push(out, kw),
                    None => push(out, Tok::Ident(ident.to_string())),
                }
            }
            other => return Err(err(format!("unexpected character {other:?}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn simple_line() {
        assert_eq!(
            toks("x = 1 + 2.5"),
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Int(1),
                Tok::Plus,
                Tok::Float(2.5),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn indentation_blocks() {
        let src = "if x < 1:\n    y = 2\nz = 3\n";
        let t = toks(src);
        assert!(t.contains(&Tok::Indent));
        assert!(t.contains(&Tok::Dedent));
        let indent_pos = t.iter().position(|x| *x == Tok::Indent).unwrap();
        let dedent_pos = t.iter().position(|x| *x == Tok::Dedent).unwrap();
        assert!(indent_pos < dedent_pos);
    }

    #[test]
    fn trailing_dedents_emitted() {
        let src = "if x < 1:\n    if y < 2:\n        z = 1\n";
        let t = toks(src);
        let dedents = t.iter().filter(|x| **x == Tok::Dedent).count();
        assert_eq!(dedents, 2);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a ** b // c != d"),
            vec![
                Tok::Ident("a".into()),
                Tok::DoubleStar,
                Tok::Ident("b".into()),
                Tok::DoubleSlash,
                Tok::Ident("c".into()),
                Tok::NotEq,
                Tok::Ident("d".into()),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_and_comments() {
        let t = toks("s = 'a#b'  # trailing comment");
        assert_eq!(
            t,
            vec![
                Tok::Ident("s".into()),
                Tok::Assign,
                Tok::Str("a#b".into()),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn keywords_recognised() {
        let t = toks("def f(x):\n    return not True and None\n");
        assert!(t.contains(&Tok::Def));
        assert!(t.contains(&Tok::Return));
        assert!(t.contains(&Tok::Not));
        assert!(t.contains(&Tok::And));
        assert!(t.contains(&Tok::NoneKw));
    }

    #[test]
    fn errors_reported_with_line() {
        let err = lex("x = 1\ny = @").unwrap_err();
        match err {
            GracefulError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn inconsistent_indent_rejected() {
        let src = "if x < 1:\n    y = 2\n  z = 3\n";
        assert!(lex(src).is_err());
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(toks("x = 1e-3")[2], Tok::Float(1e-3));
        assert_eq!(toks("x = 2.5e2")[2], Tok::Float(250.0));
    }
}
