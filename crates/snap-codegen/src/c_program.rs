//! Whole-program C emission — the paper's Listing 5.
//!
//! Figure 16 shows the map example written out explicitly (so the
//! translation is easy to follow); executing the "code of" block under
//! the C mapping produces Listing 5: a complete C program with a
//! linked-list runtime (`node_t`, `append`) standing in for Snap!'s
//! dynamic lists.

use snap_ast::builder::*;
use snap_ast::Stmt;

use crate::gen::{CodegenError, Generator};
use crate::mapping::{CodeMapping, Target};

/// The linked-list runtime of Listing 5, verbatim in shape.
pub const C_LIST_RUNTIME: &str = r#"typedef struct node {
    int data;
    struct node *next;
} node_t;

void append(int d, node_t *p) {
    while (p->next != NULL)
        p = p->next;
    p->next = (node_t *) malloc(sizeof(node_t));
    p = p->next;
    p->data = d;
    p->next = NULL;
}
"#;

/// Assemble a full C program around a translated script body.
pub fn emit_c_program(stmts: &[Stmt]) -> Result<String, CodegenError> {
    let mapping = CodeMapping::preset(Target::C);
    let mut gen = Generator::new(&mapping);
    let body = gen.script(stmts)?;

    let mut out = String::new();
    out.push_str("#include <stdio.h>\n#include <stdlib.h>\n");
    if gen.needs_math() {
        out.push_str("#include <math.h>\n");
    }
    out.push('\n');
    if gen.needs_list_runtime() {
        out.push_str(C_LIST_RUNTIME);
        out.push('\n');
    }
    out.push_str("int main()\n{\n");
    for line in body.lines() {
        if line.is_empty() {
            out.push('\n');
        } else {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str("    return (0);\n}\n");
    Ok(out)
}

/// The Figure 16 script: the map example written out explicitly.
///
/// ```text
/// set a to (list 3 7 8)
/// set b to (list)
/// set len to (length of a)
/// for i = 1 to len { add ((item i of a) × 10) to b }
/// ```
pub fn map_example_script() -> Vec<Stmt> {
    vec![
        set_var("a", number_list([3.0, 7.0, 8.0])),
        set_var("b", make_list(vec![])),
        set_var("len", length_of(var("a"))),
        for_loop(
            "i",
            num(1.0),
            var("len"),
            vec![add_to_list(
                mul(item(var("i"), var("a")), num(10.0)),
                var("b"),
            )],
        ),
    ]
}

/// Generate Listing 5: the map example as a complete C program.
pub fn emit_listing5() -> String {
    emit_c_program(&map_example_script()).expect("the map example always translates")
}

/// Listing 5 made actually runnable: the paper's `malloc` list heads
/// leave `next` uninitialized, so `append`'s `while (p->next != NULL)`
/// walks garbage. Zeroing the allocations (`calloc`) preserves the
/// listing's shape while giving every fresh node a NULL `next`.
pub fn emit_listing5_runnable() -> String {
    emit_listing5().replace("malloc(sizeof(node_t))", "calloc(1, sizeof(node_t))")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing5_contains_the_papers_fragments() {
        let code = emit_listing5();
        // Key fragments of the paper's Listing 5, byte-for-byte.
        for fragment in [
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "typedef struct node {",
            "struct node *next;",
            "} node_t;",
            "void append(int d, node_t *p) {",
            "while (p->next != NULL)",
            "p->next = (node_t *) malloc(sizeof(node_t));",
            "int main()",
            "int a[] = {3, 7, 8};",
            "node_t *b = (node_t *) malloc(sizeof(node_t));",
            "len = (sizeof(a)/sizeof(a[0]));",
            "int i; for (i = 1; i <= len; i++){",
            "append((a[i - 1] * 10), b);",
            "return (0);",
        ] {
            assert!(
                code.contains(fragment),
                "missing fragment: {fragment}\n{code}"
            );
        }
    }

    #[test]
    fn headers_and_list_runtime_follow_what_the_script_uses() {
        let plain = emit_c_program(&[set_var("x", add(num(1.0), num(2.0)))]).unwrap();
        assert!(
            plain.starts_with("#include <stdio.h>\n#include <stdlib.h>\n\nint main()\n{\n"),
            "{plain}"
        );
        assert!(plain.ends_with("    return (0);\n}\n"), "{plain}");
        assert!(!plain.contains("typedef struct node"));
        for uses_math in [sqrt(num(2.0)), pow(num(2.0), num(3.0))] {
            let code = emit_c_program(&[set_var("r", uses_math)]).unwrap();
            assert!(code.contains("#include <math.h>"), "{code}");
            assert!(!code.contains("typedef struct node"), "{code}");
        }
        // An empty slot outside a ring has no C meaning.
        assert!(emit_c_program(&[set_var("x", empty_slot())]).is_err());
    }

    #[test]
    fn listing5_is_deterministic() {
        assert_eq!(emit_listing5(), emit_listing5());
    }
}
