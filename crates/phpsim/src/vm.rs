//! Bytecode VM: executes a compiled [`Chunk`] against a [`Host`].
//!
//! The VM is the serving engine; the tree-walking
//! [`crate::interp::Interp`] remains intact as the differential oracle.
//! Observable behaviour — echoed output, the queries the host receives
//! (text and order), `mysql_error()` state, and the
//! [`PhpError::Terminated`]/[`PhpError::Runtime`] error surface — is
//! bit-identical by construction: both engines share the builtin table
//! ([`crate::builtins`]), the type-juggling and assignment helpers, and
//! the superglobal population code, and differ only in how they walk the
//! program. The differential suites (full-corpus replay plus the
//! random-program proptest) pin the equivalence.
//!
//! Unlike the tree-walker, each [`Vm::run`] starts from fresh variables
//! (superglobals only): a chunk's variable slots belong to that chunk.
//! Output accumulates across runs, mirroring [`Interp::output`]
//! (one request per engine instance in the serving path either way).
//!
//! [`Interp::output`]: crate::interp::Interp::output

use crate::ast::{AssignOp, SUPERGLOBALS};
use crate::builtins;
use crate::compile::{Chunk, InterpSeg, Op};
use crate::interp::{
    apply_assign_op, assign_into, eval_binop, index_read, isset_index, set_superglobal_entry, Host,
    PhpError, Runtime,
};
use crate::value::{PArray, PKey, PValue};

/// Iteration ceiling shared with the tree-walker's `while` guard.
const LOOP_GUARD_LIMIT: u64 = 1_000_000;

/// The bytecode virtual machine.
pub struct Vm<'h> {
    rt: Runtime<'h>,
    superglobals: [PArray; 5],
    output: String,
}

impl<'h> std::fmt::Debug for Vm<'h> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm").field("output_len", &self.output.len()).finish_non_exhaustive()
    }
}

impl<'h> Vm<'h> {
    /// Creates a VM bound to `host` with empty superglobals.
    pub fn new(host: &'h mut dyn Host) -> Self {
        Vm { rt: Runtime::new(host), superglobals: Default::default(), output: String::new() }
    }

    /// Sets a `$_GET` parameter (also mirrored into `$_REQUEST`).
    pub fn set_get_param(&mut self, key: &str, value: &str) {
        set_superglobal_entry(&mut self.superglobals[0], key, value);
        set_superglobal_entry(&mut self.superglobals[3], key, value);
    }

    /// Sets a `$_POST` parameter (also mirrored into `$_REQUEST`).
    pub fn set_post_param(&mut self, key: &str, value: &str) {
        set_superglobal_entry(&mut self.superglobals[1], key, value);
        set_superglobal_entry(&mut self.superglobals[3], key, value);
    }

    /// Sets a `$_COOKIE` value.
    pub fn set_cookie(&mut self, key: &str, value: &str) {
        set_superglobal_entry(&mut self.superglobals[2], key, value);
    }

    /// Sets a `$_SERVER` entry (e.g. `HTTP_USER_AGENT`, `REMOTE_ADDR`).
    pub fn set_server_var(&mut self, key: &str, value: &str) {
        set_superglobal_entry(&mut self.superglobals[4], key, value);
    }

    /// Everything the script `echo`ed so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Executes a chunk to completion.
    ///
    /// # Errors
    ///
    /// [`PhpError::Terminated`] if the host killed the request;
    /// [`PhpError::Runtime`] on genuine script errors. Output produced
    /// before the error is retained, as in the tree-walker.
    pub fn run(&mut self, chunk: &Chunk) -> Result<(), PhpError> {
        debug_assert_eq!(&chunk.vars[..SUPERGLOBALS.len().min(chunk.vars.len())], SUPERGLOBALS);
        let mut slots: Vec<PValue> = Vec::with_capacity(chunk.vars.len());
        for sg in &self.superglobals {
            slots.push(PValue::Array(sg.clone()));
        }
        slots.resize(chunk.vars.len(), PValue::Null);
        let mut stack: Vec<PValue> = Vec::with_capacity(16);
        let mut guards = vec![0u64; chunk.guards as usize];
        let mut iters: Vec<std::vec::IntoIter<(PKey, PValue)>> = Vec::new();
        let mut pc = 0usize;

        macro_rules! pop {
            () => {
                stack.pop().expect("compiler guarantees stack discipline")
            };
        }

        while let Some(op) = chunk.ops.get(pc) {
            pc += 1;
            match op {
                Op::Const(i) => stack.push(chunk.consts[*i as usize].clone()),
                Op::Load(s) => stack.push(slots[*s as usize].clone()),
                Op::Store(s) => slots[*s as usize] = pop!(),
                Op::StoreOp(s, aop) => {
                    let rhs = pop!();
                    let slot = &mut slots[*s as usize];
                    *slot = apply_assign_op(*aop, slot, &rhs);
                }
                Op::StoreIndex { slot, path, op } => {
                    let path = &chunk.index_paths[*path as usize];
                    let mut keys: Vec<Option<PKey>> = vec![None; path.len()];
                    for (j, has_key) in path.iter().enumerate().rev() {
                        if *has_key {
                            keys[j] = Some(PKey::from_value(&pop!()));
                        }
                    }
                    let rhs = pop!();
                    assign_into(&mut slots[*slot as usize], &keys, *op, rhs)?;
                }
                Op::Dup => {
                    let v = stack.last().expect("dup on empty stack").clone();
                    stack.push(v);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Jump(t) => pc = *t as usize,
                Op::JumpIfFalse(t) => {
                    if !pop!().to_php_bool() {
                        pc = *t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    if pop!().to_php_bool() {
                        pc = *t as usize;
                    }
                }
                Op::ToBool => {
                    let v = pop!();
                    stack.push(PValue::Bool(v.to_php_bool()));
                }
                Op::Not => {
                    let v = pop!();
                    stack.push(PValue::Bool(!v.to_php_bool()));
                }
                Op::Neg => {
                    let v = pop!();
                    stack.push(match v {
                        PValue::Int(i) => PValue::Int(-i),
                        other => PValue::Float(-other.to_php_float()),
                    });
                }
                Op::Bin(bop) => {
                    let r = pop!();
                    let l = pop!();
                    stack.push(eval_binop(*bop, &l, &r));
                }
                Op::Concat(n) => {
                    let at = stack.len() - *n as usize;
                    let mut s = String::new();
                    for p in &stack[at..] {
                        p.append_php_string(&mut s);
                    }
                    stack.truncate(at);
                    stack.push(PValue::Str(s));
                }
                Op::Index => {
                    let i = pop!();
                    let b = pop!();
                    stack.push(index_read(&b, &i));
                }
                Op::LoadIndex(s) => {
                    let i = pop!();
                    stack.push(index_read(&slots[*s as usize], &i));
                }
                Op::Interp(i) => {
                    let mut s = String::new();
                    for seg in &chunk.interps[*i as usize] {
                        match seg {
                            InterpSeg::Lit(l) => s.push_str(l),
                            InterpSeg::Var(slot) => {
                                slots[*slot as usize].append_php_string(&mut s);
                            }
                        }
                    }
                    stack.push(PValue::Str(s));
                }
                Op::Call { name, argc } => {
                    let args = stack.split_off(stack.len() - *argc as usize);
                    let nm = &chunk.names[*name as usize];
                    let v =
                        builtins::dispatch_builtin(&mut self.rt, &nm.lower, &nm.original, args)?;
                    stack.push(v);
                }
                Op::HostQuery => {
                    let sql = pop!().to_php_string();
                    let v = builtins::host_query(&mut self.rt, &sql)?;
                    stack.push(v);
                }
                Op::HostQueryPrepared => {
                    let args = pop!();
                    let sql = pop!().to_php_string();
                    let (text, bindings) = builtins::db_query_expand(sql, &args);
                    let v = builtins::host_query_prepared(&mut self.rt, &text, &bindings)?;
                    stack.push(v);
                }
                Op::Echo => {
                    let v = pop!();
                    v.append_php_string(&mut self.output);
                }
                Op::EchoN(n) => {
                    let at = stack.len() - *n as usize;
                    for p in &stack[at..] {
                        p.append_php_string(&mut self.output);
                    }
                    stack.truncate(at);
                }
                Op::StoreTruthy(s) => {
                    let v = pop!();
                    let truthy = v.to_php_bool();
                    slots[*s as usize] = v;
                    stack.push(PValue::Bool(truthy));
                }
                Op::AppendSlot(s) => {
                    let rhs = pop!();
                    let slot = &mut slots[*s as usize];
                    if let PValue::Str(acc) = slot {
                        rhs.append_php_string(acc);
                    } else {
                        *slot = apply_assign_op(AssignOp::Concat, slot, &rhs);
                    }
                }
                Op::ExitMsg => {
                    if let PValue::Str(s) = pop!() {
                        self.output.push_str(&s);
                    }
                }
                Op::Halt => return Ok(()),
                Op::NewArray => stack.push(PValue::Array(PArray::new())),
                Op::ArrayPush => {
                    let v = pop!();
                    if let Some(PValue::Array(a)) = stack.last_mut() {
                        a.push(v);
                    }
                }
                Op::ArrayInsert => {
                    let k = pop!();
                    let v = pop!();
                    if let Some(PValue::Array(a)) = stack.last_mut() {
                        a.set(PKey::from_value(&k), v);
                    }
                }
                Op::IssetSlot(s) => {
                    stack.push(PValue::Bool(!matches!(slots[*s as usize], PValue::Null)));
                }
                Op::IssetIndex => {
                    let i = pop!();
                    let b = pop!();
                    stack.push(PValue::Bool(isset_index(&b, &i)));
                }
                Op::GuardReset(g) => guards[*g as usize] = 0,
                Op::GuardTick(g) => {
                    let c = &mut guards[*g as usize];
                    *c += 1;
                    if *c > LOOP_GUARD_LIMIT {
                        return Err(PhpError::Runtime("loop iteration limit exceeded".into()));
                    }
                }
                Op::IterNew => {
                    let items: Vec<(PKey, PValue)> = match pop!() {
                        PValue::Array(a) => a.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
                        _ => Vec::new(), // foreach over non-array: skip body
                    };
                    iters.push(items.into_iter());
                }
                Op::IterNext { key, val, end } => {
                    let it = iters.last_mut().expect("iterator stack underflow");
                    match it.next() {
                        Some((k, v)) => {
                            if let Some(ks) = key {
                                slots[*ks as usize] = match k {
                                    PKey::Int(i) => PValue::Int(i),
                                    PKey::Str(s) => PValue::Str(s),
                                };
                            }
                            slots[*val as usize] = v;
                        }
                        None => {
                            iters.pop();
                            pc = *end as usize;
                        }
                    }
                }
                Op::IterPop => {
                    iters.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::interp::{Interp, QueryOutcome};
    use crate::parser::parse_program;

    /// A host that records queries and returns canned rows.
    struct FakeHost {
        queries: Vec<String>,
        rows: Vec<Vec<(String, String)>>,
        terminate: bool,
    }

    impl FakeHost {
        fn new() -> Self {
            FakeHost { queries: Vec::new(), rows: Vec::new(), terminate: false }
        }
    }

    impl Host for FakeHost {
        fn query(&mut self, sql: &str) -> QueryOutcome {
            self.queries.push(sql.to_string());
            if self.terminate {
                QueryOutcome::Terminated
            } else {
                QueryOutcome::Rows(self.rows.clone())
            }
        }
    }

    /// Runs `src` under both engines with identical inputs and asserts
    /// identical output, query streams, and error results; returns the
    /// VM's observation.
    fn diff_both(src: &str, rows: Vec<Vec<(String, String)>>) -> (String, Vec<String>) {
        let prog = parse_program(src).expect("valid program");
        let chunk = compile(&prog);

        let mut tw_host = FakeHost::new();
        tw_host.rows = rows.clone();
        let mut interp = Interp::new(&mut tw_host);
        interp.set_get_param("id", "7");
        interp.set_get_param("name", "alice");
        let tw_result = interp.run(&prog);
        let tw_out = interp.output().to_string();
        drop(interp);

        let mut vm_host = FakeHost::new();
        vm_host.rows = rows;
        let mut vm = Vm::new(&mut vm_host);
        vm.set_get_param("id", "7");
        vm.set_get_param("name", "alice");
        let vm_result = vm.run(&chunk);
        let vm_out = vm.output().to_string();
        drop(vm);

        assert_eq!(vm_result, tw_result, "engine results diverge on {src:?}");
        assert_eq!(vm_out, tw_out, "engine output diverges on {src:?}");
        assert_eq!(vm_host.queries, tw_host.queries, "query streams diverge on {src:?}");
        (vm_out, vm_host.queries)
    }

    #[test]
    fn query_construction_matches_tree_walk() {
        let (_, queries) = diff_both(
            r#"$id = $_GET['id'];
               $q = "SELECT * FROM records WHERE ID=" . $id . " LIMIT 5";
               mysql_query($q);"#,
            vec![],
        );
        assert_eq!(queries, ["SELECT * FROM records WHERE ID=7 LIMIT 5"]);
    }

    #[test]
    fn fetch_loop_matches() {
        let (out, _) = diff_both(
            r#"$r = mysql_query("SELECT id, name FROM t");
               while ($row = mysql_fetch_assoc($r)) {
                   echo $row['name'], ";";
               }"#,
            vec![
                vec![("id".into(), "1".into()), ("name".into(), "a".into())],
                vec![("id".into(), "2".into()), ("name".into(), "b".into())],
            ],
        );
        assert_eq!(out, "a;b;");
    }

    #[test]
    fn control_flow_matrix_matches() {
        for src in [
            r#"$i = 0; while ($i < 10) { $i += 1; if ($i == 2) { continue; } if ($i == 4) { break; } echo $i; }"#,
            r#"foreach (array('x' => 1, 'y' => 2) as $k => $v) { echo $k, "=", $v, " "; }"#,
            r#"echo isset($_GET['missing']) ? $_GET['missing'] : 'dflt';"#,
            r#"echo $_GET['id'] ?: 'fallback';"#,
            r#"echo "a"; exit; echo "b";"#,
            r#"die('fatal');"#,
            r#"break; echo "unreachable";"#,
            r#"$a['x']['y'] = 5; echo $a['x']['y'];"#,
            r#"$s = 'abc'; echo $s[1], $s[99];"#,
            r#"echo "[", $nope, "]";"#,
            r#"if ('1' == 1) { echo "y"; } if ('1' === 1) { echo "n"; }"#,
            r#"$q = "SELECT"; $q .= " 1"; echo $q;"#,
            r#"echo 2 + 3 * 4, " ", 10 / 4, " ", 10 % 3, " ", -$_GET['id'];"#,
            r#"echo (1 && "x"), (0 || 3), (1 and 0);"#,
            r#"echo strtoupper(trim("  ok  ")), strlen("abc");"#,
        ] {
            diff_both(src, vec![]);
        }
    }

    #[test]
    fn termination_matches() {
        let prog = parse_program(r#"mysql_query("SELECT 1"); echo "never";"#).unwrap();
        let chunk = compile(&prog);
        let mut host = FakeHost::new();
        host.terminate = true;
        let mut vm = Vm::new(&mut host);
        let err = vm.run(&chunk).unwrap_err();
        assert_eq!(err, PhpError::Terminated);
        assert_eq!(vm.output(), "");
    }

    #[test]
    fn undefined_function_error_matches_spelling() {
        let prog = parse_program("Totally_Unknown();").unwrap();
        let chunk = compile(&prog);
        let mut host = FakeHost::new();
        let mut vm = Vm::new(&mut host);
        let err = vm.run(&chunk).unwrap_err();
        assert_eq!(err, PhpError::Runtime("call to undefined function Totally_Unknown()".into()));
    }

    #[test]
    fn loop_guard_fires_like_tree_walk() {
        diff_both(r#"$i = 0; while (1) { $i += 1; if ($i > 3) { break; } }"#, vec![]);
        let prog = parse_program("while (1) { $x = 1; }").unwrap();
        let chunk = compile(&prog);
        let mut host = FakeHost::new();
        let mut vm = Vm::new(&mut host);
        assert_eq!(
            vm.run(&chunk).unwrap_err(),
            PhpError::Runtime("loop iteration limit exceeded".into())
        );
    }
}
