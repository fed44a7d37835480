//! Edge-semantics tests written once and run against *both* engines.
//!
//! Each case executes the same source through the tree-walking
//! interpreter and through compile+VM, asserting identical output, query
//! streams, and terminal error. These pin the corners where a bytecode
//! lowering most easily drifts from the oracle: foreach over an array
//! mutated inside the loop body, break/continue from nested loops,
//! `Terminated` aborting mid-expression, uninitialized-variable reads,
//! and PHP's string/number coercions through builtins.

use joza_phpsim::interp::{Host, Interp, PhpError, QueryOutcome};
use joza_phpsim::parser::parse_program;
use joza_phpsim::{compile, Vm};

/// Scripted host: answers queries from a canned playlist and records the
/// SQL it saw. `Terminate` entries kill the request mid-expression.
struct ScriptHost {
    seen: Vec<String>,
    script: Vec<QueryOutcome>,
}

impl ScriptHost {
    fn new(script: Vec<QueryOutcome>) -> Self {
        ScriptHost { seen: Vec::new(), script }
    }
}

impl Host for ScriptHost {
    fn query(&mut self, sql: &str) -> QueryOutcome {
        self.seen.push(sql.to_string());
        if self.script.is_empty() {
            QueryOutcome::Rows(vec![])
        } else {
            self.script.remove(0)
        }
    }

    fn query_prepared(&mut self, sql: &str, params: &[(String, String)]) -> QueryOutcome {
        self.seen.push(format!("PREPARED {sql} {params:?}"));
        if self.script.is_empty() {
            QueryOutcome::Rows(vec![])
        } else {
            self.script.remove(0)
        }
    }
}

/// Observable result surface of one run, comparable across engines.
#[derive(Debug, PartialEq)]
struct Run {
    result: Result<(), PhpError>,
    output: String,
    queries: Vec<String>,
}

fn run_both(src: &str, params: &[(&str, &str)], script: Vec<QueryOutcome>) -> Run {
    let prog = parse_program(src).expect("edge-case source must parse");

    let mut tw_host = ScriptHost::new(script.clone());
    let mut interp = Interp::new(&mut tw_host);
    for (k, v) in params {
        interp.set_get_param(k, v);
    }
    let tw_result = interp.run(&prog);
    let tw = Run { result: tw_result, output: interp.output().to_string(), queries: tw_host.seen };

    let chunk = compile(&prog);
    let mut vm_host = ScriptHost::new(script);
    let mut vm = Vm::new(&mut vm_host);
    for (k, v) in params {
        vm.set_get_param(k, v);
    }
    let vm_result = vm.run(&chunk);
    let vm_run = Run { result: vm_result, output: vm.output().to_string(), queries: vm_host.seen };

    assert_eq!(vm_run, tw, "engines diverged on:\n{src}");
    tw
}

fn run_both_plain(src: &str) -> Run {
    run_both(src, &[], vec![])
}

#[test]
fn foreach_snapshots_array_mutated_in_loop() {
    // PHP's foreach iterates a snapshot: pushes from inside the body must
    // not extend the iteration, and writes to visited cells must not be
    // observed by later iterations of the same loop.
    let run = run_both_plain(
        r#"
        $a = array(1, 2, 3);
        foreach ($a as $k => $v) {
            $a[] = $v + 10;
            $a[0] = 99;
            echo $k . ":" . $v . ";";
        }
        echo count($a);
        "#,
    );
    assert_eq!(run.output, "0:1;1:2;2:3;6");
    assert_eq!(run.result, Ok(()));
}

#[test]
fn foreach_element_removal_does_not_affect_iteration() {
    let run = run_both_plain(
        r#"
        $a = array("x" => "1", "y" => "2", "z" => "3");
        foreach ($a as $k => $v) {
            $a = array();
            echo $k . "=" . $v . " ";
        }
        "#,
    );
    assert_eq!(run.output, "x=1 y=2 z=3 ");
}

#[test]
fn break_and_continue_inner_loop_only() {
    // break/continue bind to the innermost enclosing loop; the outer
    // while keeps running.
    let run = run_both_plain(
        r#"
        $i = 0;
        while ($i < 3) {
            $i = $i + 1;
            foreach (array(1, 2, 3, 4) as $v) {
                if ($v == 2) { continue; }
                if ($v == 4) { break; }
                echo $i . "." . $v . " ";
            }
        }
        echo "done";
        "#,
    );
    assert_eq!(run.output, "1.1 1.3 2.1 2.3 3.1 3.3 done");
}

#[test]
fn break_inside_foreach_inside_while_pops_iterator_state() {
    // A foreach broken out of early must not leak iterator state into the
    // next arrival at the same foreach (regression guard for VM iterator
    // stack handling).
    let run = run_both_plain(
        r#"
        $round = 0;
        while ($round < 2) {
            $round = $round + 1;
            foreach (array("a", "b", "c") as $v) {
                echo $v;
                if ($v == "b") { break; }
            }
        }
        "#,
    );
    assert_eq!(run.output, "abab");
}

#[test]
fn top_level_break_and_continue_end_program() {
    let b = run_both_plain(r#"echo "x"; break; echo "y";"#);
    assert_eq!(b.output, "x");
    assert_eq!(b.result, Ok(()));
    let c = run_both_plain(r#"echo "x"; continue; echo "y";"#);
    assert_eq!(c.output, "x");
    assert_eq!(c.result, Ok(()));
}

#[test]
fn terminated_aborts_mid_expression() {
    // The kill fires while evaluating the *right-hand side* of a concat
    // inside an assignment: nothing after the query may execute, the
    // assignment must not land, and the partial output must match.
    let run = run_both(
        r#"
        echo "pre;";
        $x = "q=" . mysql_query("SELECT 1") . ";tail";
        echo "post;";
        echo $x;
        "#,
        &[],
        vec![QueryOutcome::Terminated],
    );
    assert_eq!(run.result, Err(PhpError::Terminated));
    assert_eq!(run.output, "pre;");
    assert_eq!(run.queries, vec!["SELECT 1"]);
}

#[test]
fn terminated_aborts_inside_loop_condition() {
    let run = run_both(
        r#"
        while (mysql_query("SELECT tick")) { echo "body;"; }
        echo "after";
        "#,
        &[],
        vec![QueryOutcome::Rows(vec![vec![("c".into(), "1".into())]]), QueryOutcome::Terminated],
    );
    assert_eq!(run.result, Err(PhpError::Terminated));
    assert_eq!(run.output, "body;");
    assert_eq!(run.queries.len(), 2);
}

#[test]
fn uninitialized_variables_read_as_null_everywhere() {
    // Undefined vars: empty in string context, 0 in numeric context,
    // false in boolean context, and count() of a scalar-ish null is 0.
    let run = run_both_plain(
        r#"
        echo "[" . $undef . "]";
        echo $undef + 5;
        if ($undef) { echo "T"; } else { echo "F"; }
        echo intval($undef);
        $undef2[3] = "deep";
        echo $undef2[3];
        "#,
    );
    assert_eq!(run.output, "[]5F0deep");
}

#[test]
fn string_number_coercion_in_comparisons_and_builtins() {
    let run = run_both_plain(
        r#"
        echo ("10" == "1e1") ? "a" : "b";
        echo (0 == "x") ? "c" : "d";
        echo ("abc" . 5) . (5 . "");
        echo intval("12abc") + intval("abc");
        echo strlen(42);
        echo ("2" + "3way");
        "#,
    );
    // "10"=="1e1" numeric-compares equal ("a"); the interpreter keeps
    // PHP5/7 loose-compare semantics where 0 == "x" coerces the string to
    // 0 ("c"); "abc".5 → "abc5", 5."" → "5"; intval("12abc")+intval("abc")
    // = 12; strlen(42) = 2; "2"+"3way" = 5.
    assert_eq!(run.output, "acabc551225");
    assert_eq!(run.result, Ok(()));
}

#[test]
fn compound_assign_and_increment_coercions() {
    let run = run_both_plain(
        r#"
        $s = "5";
        $s += 2;
        echo $s;
        $t = "a";
        $t .= 3 + 4;
        echo $t;
        $c = $n . "7";
        $c += 1;
        echo $c;
        "#,
    );
    assert_eq!(run.output, "7a78");
}

#[test]
fn isset_does_not_evaluate_and_arrays_coerce() {
    let run = run_both(
        r#"
        if (isset($_GET['present'])) { echo "P"; }
        if (isset($_GET['absent'])) { echo "A"; } else { echo "-"; }
        $a = array(1);
        if (isset($a[0])) { echo "I"; }
        if (isset($a[9])) { echo "J"; } else { echo "-"; }
        if (isset(mysql_query("MUST NOT RUN"))) { echo "Q"; }
        "#,
        &[("present", "yes")],
        vec![],
    );
    // isset over a non-variable clause is statically true and must not
    // issue the query.
    assert_eq!(run.output, "P-I-Q");
    assert!(run.queries.is_empty(), "isset must not evaluate its clause");
}

#[test]
fn query_error_then_recovery_matches() {
    let run = run_both(
        r#"
        $r = mysql_query("BROKEN");
        if ($r) { echo "ok"; } else { echo "err:" . mysql_error(); }
        $r2 = mysql_query("SELECT fine");
        if ($r2) { echo ";ok2:" . mysql_error() . "."; }
        "#,
        &[],
        vec![QueryOutcome::Error("syntax oops".into()), QueryOutcome::Rows(vec![])],
    );
    assert_eq!(run.output, "err:syntax oops;ok2:.");
    assert_eq!(run.result, Ok(()));
}

#[test]
fn exit_with_non_string_argument_appends_nothing() {
    let run = run_both_plain(r#"echo "x"; exit(3); echo "y";"#);
    assert_eq!(run.output, "x");
    let run2 = run_both_plain(r#"echo "x"; die("bye"); echo "y";"#);
    assert_eq!(run2.output, "xbye");
}

#[test]
fn utf8_literals_render_unmangled() {
    let run = run_both_plain(r#"echo 'café'; echo "|ünï\é|"; echo strlen('é');"#);
    // Literals keep their UTF-8 bytes; an unknown escape keeps its
    // backslash; strlen counts bytes.
    assert_eq!(run.output, "café|ünï\\é|2");
}

#[test]
fn integer_literals_past_i64_max_are_floats() {
    let run = run_both_plain(
        r#"
        $big = 99999999999999999999;
        echo $big > 9223372036854775807 ? "float" : "wrapped";
        echo "|" . $big;
        echo "|" . 9223372036854775807;
        "#,
    );
    // PHP reads an integer literal that overflows i64 as a float.
    assert_eq!(run.output, "float|100000000000000000000|9223372036854775807");
}
