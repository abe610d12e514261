//! The token alphabet of Machiavelli.

use crate::span::Span;
use std::fmt;

/// A lexed token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// Token kinds.
///
/// Keywords follow the paper's surface syntax (ML-flavoured). `hom*` is a
/// single token (`HomStar`) lexed when `*` immediately follows `hom`.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals and names
    Int(i64),
    Real(f64),
    Str(String),
    Ident(String),
    /// A type variable written `'a` (any type) — used in type syntax.
    TyVar(String),
    /// A description type variable written `"a` — used in type syntax.
    DescVar(String),

    // Keywords
    Val,
    Fun,
    Fn,
    If,
    Then,
    Else,
    Case,
    Of,
    Other,
    Let,
    In,
    End,
    Select,
    Where,
    With,
    As,
    True,
    False,
    Andalso,
    Orelse,
    Not,
    Div,
    Mod,
    Modify,
    Join,
    Con,
    Project,
    Union,
    Unionc,
    Hom,
    HomStar,
    Ref,
    /// `rec` — used both for recursive types (`rec v . τ`) and recursive
    /// descriptions (`rec(x, e)`).
    Rec,
    /// `raise` — only used by the `as` desugaring in the paper; accepted
    /// for completeness.
    Raise,
    // Type keywords
    TyUnit,
    TyInt,
    TyBool,
    TyString,
    TyReal,
    Dynamic,

    // Punctuation / operators
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Colon,
    Dot,
    Eq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    Bang,
    Assign,
    Arrow,
    DArrow,
    LArrow,

    /// End of input sentinel.
    Eof,
}

impl TokenKind {
    /// Short human-readable description used in error messages.
    pub fn describe(&self) -> String {
        use TokenKind::*;
        match self {
            Int(n) => format!("integer `{n}`"),
            Real(r) => format!("real `{r}`"),
            Str(s) => format!("string {s:?}"),
            Ident(s) => format!("identifier `{s}`"),
            TyVar(s) => format!("type variable `'{s}`"),
            DescVar(s) => format!("description variable `\"{s}`"),
            Eof => "end of input".to_string(),
            other => format!("`{other}`"),
        }
    }
}

impl TokenKind {
    /// The spelling of a keyword or punctuation token; `None` for the
    /// tokens that carry data (literals, identifiers, type variables).
    pub fn fixed_text(&self) -> Option<&'static str> {
        use TokenKind::*;
        Some(match self {
            Int(_) | Real(_) | Str(_) | Ident(_) | TyVar(_) | DescVar(_) => return None,
            Val => "val",
            Fun => "fun",
            Fn => "fn",
            If => "if",
            Then => "then",
            Else => "else",
            Case => "case",
            Of => "of",
            Other => "other",
            Let => "let",
            In => "in",
            End => "end",
            Select => "select",
            Where => "where",
            With => "with",
            As => "as",
            True => "true",
            False => "false",
            Andalso => "andalso",
            Orelse => "orelse",
            Not => "not",
            Div => "div",
            Mod => "mod",
            Modify => "modify",
            Join => "join",
            Con => "con",
            Project => "project",
            Union => "union",
            Unionc => "unionc",
            Hom => "hom",
            HomStar => "hom*",
            Ref => "ref",
            Rec => "rec",
            Raise => "raise",
            TyUnit => "unit",
            TyInt => "int",
            TyBool => "bool",
            TyString => "string",
            TyReal => "real",
            Dynamic => "dynamic",
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            LBrace => "{",
            RBrace => "}",
            Comma => ",",
            Semi => ";",
            Colon => ":",
            Dot => ".",
            Eq => "=",
            NotEq => "<>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Caret => "^",
            Bang => "!",
            Assign => ":=",
            Arrow => "->",
            DArrow => "=>",
            LArrow => "<-",
            Eof => "<eof>",
        })
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Int(n) => write!(f, "{n}"),
            Real(r) => write!(f, "{r}"),
            Str(s) => write!(f, "{s:?}"),
            Ident(s) => write!(f, "{s}"),
            TyVar(s) => write!(f, "'{s}"),
            DescVar(s) => write!(f, "\"{s}"),
            fixed => f.write_str(fixed.fixed_text().unwrap_or_default()),
        }
    }
}

/// Look up a keyword, returning `None` for ordinary identifiers.
pub fn keyword(s: &str) -> Option<TokenKind> {
    use TokenKind::*;
    Some(match s {
        "val" => Val,
        "fun" => Fun,
        "fn" => Fn,
        "if" => If,
        "then" => Then,
        "else" => Else,
        "case" => Case,
        "of" => Of,
        "other" => Other,
        "let" => Let,
        "in" => In,
        "end" => End,
        "select" => Select,
        "where" => Where,
        "with" => With,
        "as" => As,
        "true" => True,
        "false" => False,
        "andalso" => Andalso,
        "orelse" => Orelse,
        "not" => Not,
        "div" => Div,
        "mod" => Mod,
        "modify" => Modify,
        "join" => Join,
        "con" => Con,
        "project" => Project,
        "union" => Union,
        "unionc" => Unionc,
        "hom" => Hom,
        "ref" => Ref,
        "rec" => Rec,
        "raise" => Raise,
        "unit" => TyUnit,
        "int" => TyInt,
        "bool" => TyBool,
        "string" => TyString,
        "real" => TyReal,
        "dynamic" => Dynamic,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_roundtrip_display() {
        for kw in ["val", "fun", "select", "hom", "project", "andalso"] {
            let tok = keyword(kw).unwrap();
            assert_eq!(tok.to_string(), kw);
        }
    }

    #[test]
    fn non_keyword() {
        assert_eq!(keyword("Wealthy"), None);
        assert_eq!(keyword("homx"), None);
    }

    #[test]
    fn describe_forms() {
        assert_eq!(TokenKind::Int(3).describe(), "integer `3`");
        assert_eq!(TokenKind::Eof.describe(), "end of input");
        assert_eq!(TokenKind::LArrow.describe(), "`<-`");
    }
}
