//! AST for the PHP subset.

use crate::value::PValue;

/// The request superglobals, in the order [`mod@crate::compile`] pins them
/// to the first variable slots of every chunk. Every one of them is
/// request input: the static passes treat each read as a taint source.
pub const SUPERGLOBALS: [&str; 5] = ["_GET", "_POST", "_COOKIE", "_REQUEST", "_SERVER"];

/// A program is a statement list.
pub type Program = Vec<Stmt>;

/// A PHP statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A bare expression statement (`foo($x);`).
    Expr(Expr),
    /// `$var = expr;`, `$var .= expr;`, `$var += expr;`
    Assign {
        /// Target variable name (no `$`).
        var: String,
        /// Optional index chain for `$a['k'] = v` / `$a[] = v`.
        indices: Vec<Option<Expr>>,
        /// Compound op (`None` for plain `=`).
        op: Option<AssignOp>,
        /// Right-hand side.
        expr: Expr,
    },
    /// `if (…) { … } elseif (…) { … } else { … }` — elseif chains are
    /// desugared into nested `If`s in the else branch.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch body.
        then_branch: Vec<Stmt>,
        /// Else-branch body (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// `while (…) { … }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `foreach ($arr as $v)` / `foreach ($arr as $k => $v)`
    Foreach {
        /// The iterated expression.
        array: Expr,
        /// Key variable, if the `$k =>` form is used.
        key_var: Option<String>,
        /// Value variable.
        val_var: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `echo expr, expr;`
    Echo(Vec<Expr>),
    /// `return expr;` — ends the script (top-level return).
    Return(Option<Expr>),
    /// `exit;` / `die('msg');`
    Exit(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// Compound assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `.=`
    Concat,
    /// `+=`
    Add,
    /// `-=`
    Sub,
}

/// A PHP expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(PValue),
    /// `$name`.
    Var(String),
    /// A double-quoted string with interpolation, desugared into a list of
    /// pieces concatenated at runtime.
    Interp(Vec<InterpPart>),
    /// `expr[index]` (array read).
    Index {
        /// The indexed expression.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// `name(args…)` — all callables are built-ins in this subset.
    Call {
        /// Function name (case-insensitive at dispatch).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `cond ? a : b` (also the `?:` short form with `a` omitted).
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Then-value (`None` for `?:`).
        then_val: Option<Box<Expr>>,
        /// Else-value.
        else_val: Box<Expr>,
    },
    /// `array(…)` / `[…]` literal with optional `key => value` pairs.
    ArrayLit(Vec<(Option<Expr>, Expr)>),
    /// `isset($var…)`.
    Isset(Vec<Expr>),
    /// `empty(expr)`.
    Empty(Box<Expr>),
    /// An assignment used as an expression, e.g. the idiomatic
    /// `while ($row = mysql_fetch_assoc($r))`. Evaluates to the assigned
    /// value.
    AssignExpr {
        /// Target variable.
        var: String,
        /// Right-hand side.
        expr: Box<Expr>,
    },
}

/// One piece of an interpolated string.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpPart {
    /// A literal run.
    Lit(String),
    /// An interpolated variable.
    Var(String),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `!`
    Not,
    /// `-`
    Neg,
    /// `@` (error-suppression; a no-op here).
    Silence,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `.`
    Concat,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==` (loose).
    Eq,
    /// `!=` / `<>` (loose).
    NotEq,
    /// `===`.
    Identical,
    /// `!==`.
    NotIdentical,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `&&` / `and`
    And,
    /// `||` / `or`
    Or,
}
