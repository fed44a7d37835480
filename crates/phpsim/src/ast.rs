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

/// A statement's own expressions and its nested statements.
type StmtParts<'a> = (Option<&'a Expr>, &'a [Option<Expr>], &'a [Expr], [&'a [Stmt]; 2]);
type StmtPartsMut<'a> =
    (Option<&'a mut Expr>, &'a mut [Option<Expr>], &'a mut [Expr], [&'a mut [Stmt]; 2]);

impl Stmt {
    /// The statement's own expressions and its nested statements, each in
    /// source order. A statement's expressions all precede its nested
    /// statements.
    pub fn children(&self) -> (impl Iterator<Item = &Expr>, impl Iterator<Item = &Stmt>) {
        let (one, indices, list, blocks): StmtParts<'_> = match self {
            Stmt::Expr(e) => (Some(e), &[], &[], [&[], &[]]),
            Stmt::Assign { indices, expr, .. } => (Some(expr), indices, &[], [&[], &[]]),
            Stmt::If { cond, then_branch, else_branch } => {
                (Some(cond), &[], &[], [then_branch, else_branch])
            }
            Stmt::While { cond: e, body } | Stmt::Foreach { array: e, body, .. } => {
                (Some(e), &[], &[], [body, &[]])
            }
            Stmt::Echo(list) => (None, &[], list, [&[], &[]]),
            Stmt::Return(e) | Stmt::Exit(e) => (e.as_ref(), &[], &[], [&[], &[]]),
            Stmt::Break | Stmt::Continue => (None, &[], &[], [&[], &[]]),
        };
        (indices.iter().flatten().chain(one).chain(list), blocks.into_iter().flatten())
    }

    /// [`Stmt::children`], mutably.
    pub fn children_mut(
        &mut self,
    ) -> (impl Iterator<Item = &mut Expr>, impl Iterator<Item = &mut Stmt>) {
        let (one, indices, list, blocks): StmtPartsMut<'_> = match self {
            Stmt::Expr(e) => (Some(e), &mut [], &mut [], [&mut [], &mut []]),
            Stmt::Assign { indices, expr, .. } => {
                (Some(expr), indices, &mut [], [&mut [], &mut []])
            }
            Stmt::If { cond, then_branch, else_branch } => {
                (Some(cond), &mut [], &mut [], [then_branch, else_branch])
            }
            Stmt::While { cond: e, body } | Stmt::Foreach { array: e, body, .. } => {
                (Some(e), &mut [], &mut [], [body, &mut []])
            }
            Stmt::Echo(list) => (None, &mut [], list, [&mut [], &mut []]),
            Stmt::Return(e) | Stmt::Exit(e) => (e.as_mut(), &mut [], &mut [], [&mut [], &mut []]),
            Stmt::Break | Stmt::Continue => (None, &mut [], &mut [], [&mut [], &mut []]),
        };
        (indices.iter_mut().flatten().chain(one).chain(list), blocks.into_iter().flatten())
    }
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

/// An expression's direct subexpressions: up to three operands, an
/// argument list, and `array(…)` items.
type ExprParts<'a> = ([Option<&'a Expr>; 3], &'a [Expr], &'a [(Option<Expr>, Expr)]);
type ExprPartsMut<'a> = ([Option<&'a mut Expr>; 3], &'a mut [Expr], &'a mut [(Option<Expr>, Expr)]);

impl Expr {
    /// The direct subexpressions, in source order: the one traversal every
    /// structural recursion over expressions goes through.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let (fixed, list, items): ExprParts<'_> = match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Interp(_) => ([None; 3], &[], &[]),
            Expr::Index { base: a, index: b } | Expr::Binary { left: a, right: b, .. } => {
                ([Some(&**a), Some(&**b), None], &[], &[])
            }
            Expr::Unary { expr, .. } | Expr::Empty(expr) | Expr::AssignExpr { expr, .. } => {
                ([Some(&**expr), None, None], &[], &[])
            }
            Expr::Ternary { cond, then_val, else_val } => {
                ([Some(&**cond), then_val.as_deref(), Some(&**else_val)], &[], &[])
            }
            Expr::Call { args, .. } | Expr::Isset(args) => ([None; 3], args, &[]),
            Expr::ArrayLit(items) => ([None; 3], &[], items),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(list)
            .chain(items.iter().flat_map(|(k, v)| k.iter().chain([v])))
    }

    /// [`Expr::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (fixed, list, items): ExprPartsMut<'_> = match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Interp(_) => ([None, None, None], &mut [], &mut []),
            Expr::Index { base: a, index: b } | Expr::Binary { left: a, right: b, .. } => {
                ([Some(&mut **a), Some(&mut **b), None], &mut [], &mut [])
            }
            Expr::Unary { expr, .. } | Expr::Empty(expr) | Expr::AssignExpr { expr, .. } => {
                ([Some(&mut **expr), None, None], &mut [], &mut [])
            }
            Expr::Ternary { cond, then_val, else_val } => (
                [Some(&mut **cond), then_val.as_deref_mut(), Some(&mut **else_val)],
                &mut [],
                &mut [],
            ),
            Expr::Call { args, .. } | Expr::Isset(args) => ([None, None, None], args, &mut []),
            Expr::ArrayLit(items) => ([None, None, None], &mut [], items),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(list)
            .chain(items.iter_mut().flat_map(|(k, v)| k.iter_mut().chain([v])))
    }
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
