//! OpenMP emission — the paper's §6: Listings 3–4 (hello world), 6
//! (generated map/reduce functions), 7 (the driver), and `kvp.h`.
//!
//! The MapReduce emitter splices the user's mapper and reducer rings
//! into a fixed OpenMP skeleton, exactly as the paper describes: "those
//! details are provided in the mapping from map-reduce to OpenMP code by
//! the programmer implementing the map-reduce block, i.e., us" (§6.2.1).
//!
//! One deliberate correction: the paper's Listing 6 declares
//! `int reduce(KVP *in, KVP *out)` yet calls `avg(in->val)` where `avg`
//! takes an array — not compilable as printed. We generate the grouped
//! form `int reduce(const KVP *in, size_t count, KVP *out)` so the
//! emitted program compiles and runs; the driver keeps Listing 7's
//! structure (map pragma → qsort on keys → reduce pragma → output).

use snap_ast::{BinOp, Expr, Ring, RingBody, RingExprBody};

use crate::gen::{CodegenError, Generator};
use crate::mapping::{CodeMapping, Target};

/// Listing 3: the sequential hello-world program.
pub const LISTING3_SEQUENTIAL_HELLO: &str = r#"void main() {
    int ID = 0;
    printf(" hello(%d), ", ID);
    printf(" world(%d) \n", ID);
}
"#;

/// Listing 4: the OpenMP hello-world program — "by adding a simple
/// directive (or pragma) and a function call to obtain the thread ID".
pub const LISTING4_OPENMP_HELLO: &str = r#"#include "omp.h"
void main() {
    #pragma omp parallel
    {
        int ID = omp_get_thread_num();
        printf(" hello(%d), ", ID);
        printf(" world(%d) \n", ID);
    }
}
"#;

/// A compilable variant of Listing 3 (standard `int main`, stdio
/// included) so the sequential hello is a runnable harness scenario.
pub const SEQUENTIAL_HELLO_RUNNABLE: &str = r#"#include <stdio.h>
int main(void) {
    int ID = 0;
    printf(" hello(%d), ", ID);
    printf(" world(%d) \n", ID);
    return 0;
}
"#;

/// A compilable variant of Listing 4 (standard `int main`, stdio
/// included) used by the build pipeline's smoke test and the harness.
/// Portable: without `-fopenmp` there is no `omp.h` and no `_OPENMP`,
/// so a static single-thread stand-in keeps the program runnable.
pub const OPENMP_HELLO_RUNNABLE: &str = r#"#include <stdio.h>
#ifdef _OPENMP
#include <omp.h>
#else
static int omp_get_thread_num(void) { return 0; }
#endif
int main(void) {
    #pragma omp parallel
    {
        int ID = omp_get_thread_num();
        printf(" hello(%d), ", ID);
        printf(" world(%d) \n", ID);
    }
    return 0;
}
"#;

/// The `kvp.h` header every generated MapReduce program includes.
pub const KVP_H: &str = r#"#ifndef KVP_H
#define KVP_H

#include <stddef.h>

#define MAXKEY 64

typedef struct KVP {
    char key[MAXKEY];
    float val;
} KVP;

int compare(const void *a, const void *b);
int input(int *nkvp, KVP **list);
int output(int nkvp, KVP *list);
int map(const KVP *in, KVP *out);
int reduce(const KVP *in, size_t count, KVP *out);

#endif
"#;

/// Where the mapper's output key comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySource {
    /// The mapper passes the input key through (`[w, 1]` word count).
    FromInput,
    /// The mapper emits one constant key (`["avg", …]` climate example).
    Constant(String),
}

/// The reduction the reducer ring performs, recognized from its AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducerKind {
    /// `combine vals using (+) / length of vals` — Fig. 20's averager.
    Average,
    /// `combine vals using (+)` — word count's summer.
    Sum,
    /// `length of vals`.
    Count,
}

/// A recognized MapReduce program, ready to emit.
#[derive(Debug, Clone)]
pub struct MapReduceSpec {
    /// Key handling in the generated `map`.
    pub key: KeySource,
    /// C expression for the mapped value, in terms of `in->val`.
    pub value_expr: String,
    /// The reduction.
    pub reducer: ReducerKind,
}

/// Extract a [`MapReduceSpec`] from mapper/reducer rings. The mapper
/// must report a `[key, value]` pair; the reducer must be one of the
/// recognizable reductions.
pub fn recognize(mapper: &Ring, reducer: &Ring) -> Result<MapReduceSpec, CodegenError> {
    let key_value = mapper_body(mapper)?;
    let (key_expr, value_expr_ast) = key_value;
    let param = mapper.params.first().cloned();

    let key = match key_expr {
        Expr::Var(name) if param.as_deref() == Some(name.as_str()) => KeySource::FromInput,
        Expr::EmptySlot => KeySource::FromInput,
        Expr::Literal(snap_ast::Constant::Text(s)) => KeySource::Constant(s.clone()),
        other => {
            return Err(CodegenError {
                message: format!("unsupported mapper key expression: {other:?}"),
            })
        }
    };

    let mapping = CodeMapping::preset(Target::C);
    let mut gen = Generator::new(&mapping);
    gen.slot_name = Some("in->val".to_owned());
    if let Some(p) = &param {
        gen.subst.insert(p.clone(), "in->val".to_owned());
    }
    let value_expr = gen.expr(value_expr_ast)?;

    let reducer_kind = recognize_reducer(reducer)?;
    Ok(MapReduceSpec {
        key,
        value_expr,
        reducer: reducer_kind,
    })
}

/// The mapper body must be `list <key> <value>`.
fn mapper_body(mapper: &Ring) -> Result<(&Expr, &Expr), CodegenError> {
    let body = reporter_body(mapper, "mapper")?;
    match body {
        Expr::MakeList(items) if items.len() == 2 => Ok((&items[0], &items[1])),
        other => Err(CodegenError {
            message: format!("mapper must report a [key, value] pair, got {other:?}"),
        }),
    }
}

fn reporter_body<'r>(ring: &'r Ring, role: &str) -> Result<&'r Expr, CodegenError> {
    match &ring.body {
        RingBody::Reporter(e) | RingBody::Predicate(e) => Ok(e),
        RingBody::Command(_) => Err(CodegenError {
            message: format!("{role} must be a reporter ring"),
        }),
    }
}

/// Recognize the reducer's AST pattern.
pub fn recognize_reducer(reducer: &Ring) -> Result<ReducerKind, CodegenError> {
    let param = reducer.params.first().map(String::as_str);
    let body = reporter_body(reducer, "reducer")?;
    if let Some(kind) = match_reducer(body, param) {
        Ok(kind)
    } else {
        Err(CodegenError {
            message: "unsupported reducer: expected sum, count, or average of the value list"
                .to_owned(),
        })
    }
}

fn match_reducer(body: &Expr, param: Option<&str>) -> Option<ReducerKind> {
    if is_combine_sum(body, param) {
        return Some(ReducerKind::Sum);
    }
    match body {
        Expr::LengthOf(list) if is_param(list, param) => Some(ReducerKind::Count),
        Expr::Binary(BinOp::Div, a, b) => {
            let numerator_is_sum = is_combine_sum(a, param);
            let denominator_is_len = matches!(&**b, Expr::LengthOf(l) if is_param(l, param));
            (numerator_is_sum && denominator_is_len).then_some(ReducerKind::Average)
        }
        _ => None,
    }
}

fn is_param(e: &Expr, param: Option<&str>) -> bool {
    match e {
        Expr::Var(name) => param == Some(name.as_str()),
        Expr::EmptySlot => true,
        _ => false,
    }
}

fn is_combine_sum(e: &Expr, param: Option<&str>) -> bool {
    let Expr::Combine { list, ring } = e else {
        return false;
    };
    if !is_param(list, param) {
        return false;
    }
    let Expr::Ring(ring_expr) = &**ring else {
        return false;
    };
    match &ring_expr.body {
        RingExprBody::Reporter(body) => {
            matches!(&**body, Expr::Binary(BinOp::Add, _, _))
        }
        _ => false,
    }
}

/// The generated program files.
#[derive(Debug, Clone)]
pub struct OpenMpProgram {
    /// `kvp.h`.
    pub kvp_h: String,
    /// `mapred.c` — the Listing 6 analogue (map + reduce + helper).
    pub mapred_c: String,
    /// `driver.c` — the Listing 7 analogue (main + input/output/compare).
    pub driver_c: String,
}

/// Emit a complete OpenMP MapReduce program for recognized rings and an
/// embedded dataset (the stand-in for the paper's NOAA data files —
/// §6.3 lists file ingestion as future work).
pub fn emit_mapreduce_openmp(
    mapper: &Ring,
    reducer: &Ring,
    dataset: &[(String, f64)],
) -> Result<OpenMpProgram, CodegenError> {
    let spec = recognize(mapper, reducer)?;
    Ok(OpenMpProgram {
        kvp_h: KVP_H.to_owned(),
        mapred_c: emit_mapred_c(&spec),
        driver_c: emit_driver_c(dataset),
    })
}

fn emit_mapred_c(spec: &MapReduceSpec) -> String {
    let mut out = String::new();
    out.push_str("#include <math.h>\n#include <string.h>\n#include \"kvp.h\"\n\n");

    match spec.reducer {
        ReducerKind::Average => out.push_str(
            "float avg(const KVP *a, size_t count) {\n    float sum = 0.0f;\n    for (size_t i = 0; i < count; i++)\n        sum += a[i].val;\n    return sum / (float) count;\n}\n\n",
        ),
        ReducerKind::Sum => out.push_str(
            "float sum(const KVP *a, size_t count) {\n    float s = 0.0f;\n    for (size_t i = 0; i < count; i++)\n        s += a[i].val;\n    return s;\n}\n\n",
        ),
        ReducerKind::Count => {}
    }

    out.push_str("int map (const KVP *in, KVP *out) {\n");
    match &spec.key {
        // memcpy the whole fixed-size key buffer: `in->key` is always a
        // NUL-terminated char[MAXKEY], and a bounded strncpy here trips
        // GCC's -Wstringop-truncation under -Wall -Werror.
        KeySource::FromInput => {
            out.push_str("    memcpy (out->key, in->key, MAXKEY);\n");
        }
        KeySource::Constant(k) => {
            out.push_str(&format!(
                "    strncpy (out->key, {k:?}, MAXKEY - 1);\n    out->key[MAXKEY - 1] = '\\0';\n"
            ));
        }
    }
    out.push_str(&format!(
        "    out->val = {};\n    return 0;\n}}\n\n",
        spec.value_expr
    ));

    out.push_str("int reduce (const KVP *in, size_t count, KVP *out) {\n");
    out.push_str("    memcpy (out->key, in->key, MAXKEY);\n");
    match spec.reducer {
        ReducerKind::Average => out.push_str("    out->val = avg(in, count);\n"),
        ReducerKind::Sum => out.push_str("    out->val = sum(in, count);\n"),
        ReducerKind::Count => out.push_str("    out->val = (float) count;\n"),
    }
    out.push_str("    return 0;\n}\n");
    out
}

fn emit_driver_c(dataset: &[(String, f64)]) -> String {
    let mut data_rows = String::new();
    for (key, val) in dataset {
        data_rows.push_str(&format!("    {{{key:?}, {val:?}f}},\n"));
    }

    format!(
        r#"/* OpenMP driver for Parallel Snap! MapReduce code output. */
#ifdef _OPENMP
#include <omp.h>
#endif
#include <stdlib.h>
#include <string.h>
#include <stdio.h>
#include "kvp.h"

static const KVP dataset[] = {{
{data_rows}}};

int input(int *nkvp, KVP **list) {{
    *nkvp = (int)(sizeof(dataset) / sizeof(dataset[0]));
    *list = malloc((size_t)*nkvp * sizeof(KVP));
    if (*list == NULL) return 1;
    memcpy(*list, dataset, (size_t)*nkvp * sizeof(KVP));
    return 0;
}}

int output(int nkvp, KVP *list) {{
    for (int i = 0; i < nkvp; i++) {{
        printf("%s %g\n", list[i].key, (double) list[i].val);
    }}
    return 0;
}}

int compare(const void *a, const void *b) {{
    return strncmp(((const KVP *) a)->key, ((const KVP *) b)->key, MAXKEY);
}}

int main(int argc, char *argv[]) {{
    int nkvp;
    KVP *inputlist, *midlist, *outputlist;

    (void) argc;
    (void) argv;
    if (input(&nkvp, &inputlist) != 0) {{
        return 1;
    }}
    midlist = malloc((size_t) nkvp * sizeof(KVP));

    /* Run mapper */
    #pragma omp parallel for shared(nkvp, inputlist, midlist)
    for (int i = 0; i < nkvp; i++) {{
        map(&inputlist[i], &midlist[i]);
    }}

    /* Sort on keys */
    qsort(midlist, (size_t) nkvp, sizeof(KVP), compare);
    outputlist = malloc((size_t) nkvp * sizeof(KVP));

    /* Find key-group boundaries */
    int ngroups = 0;
    int *starts = malloc(((size_t) nkvp + 1) * sizeof(int));
    for (int i = 0; i < nkvp; i++) {{
        if (i == 0 || strncmp(midlist[i].key, midlist[i - 1].key, MAXKEY) != 0) {{
            starts[ngroups++] = i;
        }}
    }}
    starts[ngroups] = nkvp;

    /* Run reducer */
    #pragma omp parallel for shared(ngroups, starts, midlist, outputlist)
    for (int g = 0; g < ngroups; g++) {{
        reduce(&midlist[starts[g]],
               (size_t)(starts[g + 1] - starts[g]),
               &outputlist[g]);
    }}

    if (output(ngroups, outputlist) != 0) {{
        exit(1);
    }}

    free(starts);
    free(inputlist);
    free(midlist);
    free(outputlist);

    return 0;
}}
"#
    )
}

/// Emit a MapReduce program whose driver reads the dataset from stdin
/// as `key,value` CSV lines (split on the *last* comma, so keys with
/// commas survive) and prints `key value` result lines — the harness
/// protocol. Because the dataset is no longer embedded in the source,
/// the compile cache reuses one binary across dataset changes.
pub fn emit_mapreduce_openmp_protocol(
    mapper: &Ring,
    reducer: &Ring,
) -> Result<OpenMpProgram, CodegenError> {
    let spec = recognize(mapper, reducer)?;
    Ok(OpenMpProgram {
        kvp_h: KVP_H.to_owned(),
        mapred_c: emit_mapred_c(&spec),
        driver_c: PROTOCOL_DRIVER_C.to_owned(),
    })
}

/// The stdin-protocol Listing 7 driver (see
/// [`emit_mapreduce_openmp_protocol`]).
pub const PROTOCOL_DRIVER_C: &str = r#"/* OpenMP driver for Parallel Snap! MapReduce code output.
   Protocol variant: the dataset arrives on stdin as `key,value` lines
   (split on the last comma); results leave as `key value` lines. */
#ifdef _OPENMP
#include <omp.h>
#endif
#include <stdlib.h>
#include <string.h>
#include <stdio.h>
#include "kvp.h"

int input(int *nkvp, KVP **list) {
    size_t cap = 1024;
    size_t n = 0;
    char line[512];
    KVP *kvps = malloc(cap * sizeof(KVP));
    if (kvps == NULL) return 1;
    while (fgets(line, sizeof line, stdin) != NULL) {
        char *nl = strchr(line, '\n');
        char *comma;
        size_t klen;
        if (nl != NULL) *nl = '\0';
        if (line[0] == '\0') continue;
        comma = strrchr(line, ',');
        if (comma == NULL) { free(kvps); return 1; }
        *comma = '\0';
        if (n == cap) {
            KVP *grown;
            cap *= 2;
            grown = realloc(kvps, cap * sizeof(KVP));
            if (grown == NULL) { free(kvps); return 1; }
            kvps = grown;
        }
        klen = strlen(line);
        if (klen > MAXKEY - 1) klen = MAXKEY - 1;
        memcpy(kvps[n].key, line, klen);
        kvps[n].key[klen] = '\0';
        kvps[n].val = (float) strtod(comma + 1, NULL);
        n++;
    }
    *nkvp = (int) n;
    *list = kvps;
    return 0;
}

int output(int nkvp, KVP *list) {
    int i;
    for (i = 0; i < nkvp; i++) {
        printf("%s %.17g\n", list[i].key, (double) list[i].val);
    }
    return 0;
}

int compare(const void *a, const void *b) {
    return strncmp(((const KVP *) a)->key, ((const KVP *) b)->key, MAXKEY);
}

/* One complete MapReduce job: map -> qsort on keys -> grouped reduce.
   The caller owns inputlist; on success *outputp (malloc'd) holds
   *ngroupsp reduced KVPs. */
static int run_batch(KVP *inputlist, int nkvp, KVP **outputp, int *ngroupsp) {
    KVP *midlist, *outputlist;
    int ngroups;
    int *starts;
    int i;
    int g;

    midlist = malloc((size_t) (nkvp > 0 ? nkvp : 1) * sizeof(KVP));
    if (midlist == NULL) return 1;

    /* Run mapper */
    #pragma omp parallel for shared(nkvp, inputlist, midlist)
    for (i = 0; i < nkvp; i++) {
        map(&inputlist[i], &midlist[i]);
    }

    /* Sort on keys */
    qsort(midlist, (size_t) nkvp, sizeof(KVP), compare);
    outputlist = malloc((size_t) (nkvp > 0 ? nkvp : 1) * sizeof(KVP));
    if (outputlist == NULL) { free(midlist); return 1; }

    /* Find key-group boundaries */
    ngroups = 0;
    starts = malloc(((size_t) nkvp + 1) * sizeof(int));
    if (starts == NULL) { free(midlist); free(outputlist); return 1; }
    for (i = 0; i < nkvp; i++) {
        if (i == 0 || strncmp(midlist[i].key, midlist[i - 1].key, MAXKEY) != 0) {
            starts[ngroups++] = i;
        }
    }
    starts[ngroups] = nkvp;

    /* Run reducer */
    #pragma omp parallel for shared(ngroups, starts, midlist, outputlist)
    for (g = 0; g < ngroups; g++) {
        reduce(&midlist[starts[g]],
               (size_t)(starts[g + 1] - starts[g]),
               &outputlist[g]);
    }

    free(starts);
    free(midlist);
    *outputp = outputlist;
    *ngroupsp = ngroups;
    return 0;
}

int main(void) {
    int nkvp;
    KVP *inputlist, *outputlist;
    int ngroups;

    if (input(&nkvp, &inputlist) != 0) {
        return 1;
    }
    if (run_batch(inputlist, nkvp, &outputlist, &ngroups) != 0) {
        return 1;
    }
    if (output(ngroups, outputlist) != 0) {
        exit(1);
    }

    free(inputlist);
    free(outputlist);

    return 0;
}
"#;

/// Emit a complete double-precision OpenMP *map* program for a numeric
/// ring: `main` reads one double per line on stdin, applies the
/// translated ring body to every element inside an
/// `#pragma omp parallel for`, and prints one `%.17g` result per line
/// in input order.
///
/// Emission runs with [`Generator::float_literals`] on and the `mod`
/// template overridden to the floor-based form, so the generated C
/// performs exactly the IEEE-754 double operation sequence of
/// [`snap_ast::bytecode::num_binop`]/[`num_unop`] — together with the
/// harness's `-ffp-contract=off` this makes native map output
/// bit-for-bit comparable to the interpreted tiers.
///
/// [`num_unop`]: snap_ast::bytecode::num_unop
/// [`Generator::float_literals`]: crate::gen::Generator::float_literals
pub fn emit_map_openmp(ring: &Ring) -> Result<String, CodegenError> {
    let body = reporter_body(ring, "mapper")?;
    let mut mapping = CodeMapping::preset(Target::C);
    // Snap!'s `mod` is the floored form (`x − y·⌊x/y⌋`), not C's
    // truncating `%` — and `%` does not even compile for doubles.
    mapping.set("mod", "(<#1> - (<#2> * floor(<#1> / <#2>)))");
    let mut gen = Generator::new(&mapping);
    gen.float_literals = true;
    gen.slot_name = Some("__x".to_owned());
    if let Some(p) = ring.params.first() {
        gen.subst.insert(p.clone(), "__x".to_owned());
    }
    let expr = gen.expr(body)?;
    Ok(format!(
        r#"/* Generated OpenMP map program (stdin/stdout line protocol). */
#include <math.h>
#include <stdio.h>
#include <stdlib.h>

static double map_fn(double __x) {{
    return {expr};
}}

int main(void) {{
    size_t cap = 1024;
    size_t n = 0;
    long i;
    long count;
    char line[256];
    double *in;
    double *out;
    in = malloc(cap * sizeof(double));
    if (in == NULL) return 1;
    while (fgets(line, sizeof line, stdin) != NULL) {{
        if (line[0] == '\n' || line[0] == '\0') continue;
        if (n == cap) {{
            double *grown;
            cap *= 2;
            grown = realloc(in, cap * sizeof(double));
            if (grown == NULL) {{ free(in); return 1; }}
            in = grown;
        }}
        in[n++] = strtod(line, NULL);
    }}
    out = malloc((n > 0 ? n : 1) * sizeof(double));
    if (out == NULL) return 1;
    count = (long) n;

    #pragma omp parallel for
    for (i = 0; i < count; i++) {{
        out[i] = map_fn(in[i]);
    }}

    for (i = 0; i < count; i++) {{
        printf("%.17g\n", out[i]);
    }}
    free(in);
    free(out);
    return 0;
}}
"#
    ))
}

/// The climate mapper of Fig. 19 — `[("avg", (5 × (t − 32)) / 9)]`.
pub fn climate_mapper() -> Ring {
    use snap_ast::builder::*;
    Ring::reporter_with_params(
        vec!["t".into()],
        make_list(vec![
            text("avg"),
            div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
        ]),
    )
}

/// The averaging reducer of Fig. 20.
pub fn averaging_reducer() -> Ring {
    use snap_ast::builder::*;
    Ring::reporter_with_params(
        vec!["vals".into()],
        div(
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            length_of(var("vals")),
        ),
    )
}

/// The word-count mapper of Fig. 11 — `[w, 1]`.
pub fn word_count_mapper() -> Ring {
    use snap_ast::builder::*;
    Ring::reporter_with_params(vec!["w".into()], make_list(vec![var("w"), num(1.0)]))
}

/// The word-count summing reducer.
pub fn summing_reducer() -> Ring {
    use snap_ast::builder::*;
    Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untranslatable_ring_is_an_error_before_any_compile() {
        // A command ring has no C expression: the emitter refuses it,
        // so the error is the same with or without a toolchain.
        let err = emit_map_openmp(&Ring::command(vec![]));
        assert!(err.is_err(), "got {err:?}");
    }

    #[test]
    fn climate_mapper_is_recognized() {
        let spec = recognize(&climate_mapper(), &averaging_reducer()).unwrap();
        assert_eq!(spec.key, KeySource::Constant("avg".into()));
        assert_eq!(spec.value_expr, "((5 * (in->val - 32)) / 9)");
        assert_eq!(spec.reducer, ReducerKind::Average);
    }

    #[test]
    fn word_count_mapper_is_recognized() {
        let spec = recognize(&word_count_mapper(), &summing_reducer()).unwrap();
        assert_eq!(spec.key, KeySource::FromInput);
        assert_eq!(spec.value_expr, "1");
        assert_eq!(spec.reducer, ReducerKind::Sum);
    }

    #[test]
    fn count_reducer_is_recognized() {
        use snap_ast::builder::*;
        let counter = Ring::reporter_with_params(vec!["vals".into()], length_of(var("vals")));
        assert_eq!(recognize_reducer(&counter).unwrap(), ReducerKind::Count);
    }

    #[test]
    fn arbitrary_reducers_are_rejected() {
        use snap_ast::builder::*;
        let weird = Ring::reporter_with_params(vec!["vals".into()], num(42.0));
        assert!(recognize_reducer(&weird).is_err());
    }

    #[test]
    fn mapper_and_reducer_shapes_without_a_c_form_are_rejected() {
        use snap_ast::builder::*;
        let mapper_error =
            |mapper: Ring| recognize(&mapper, &summing_reducer()).unwrap_err().message;
        assert!(mapper_error(Ring::reporter(num(1.0))).contains("[key, value] pair"));
        let computed_key = make_list(vec![add(var("w"), num(1.0)), num(1.0)]);
        let computed_key = Ring::reporter_with_params(vec!["w".into()], computed_key);
        assert!(mapper_error(computed_key).contains("unsupported mapper key expression"));
        assert!(mapper_error(Ring::command(vec![])).contains("mapper must be a reporter ring"));

        let sum_of = |list: Expr, op: fn(Expr, Expr) -> Expr| {
            combine_using(list, ring_reporter(op(empty_slot(), empty_slot())))
        };
        let reducer = |body: Expr| Ring::reporter_with_params(vec!["vals".into()], body);
        let kind = |body: Expr| recognize_reducer(&reducer(body)).ok();
        // A mean divides by the length of the same list, nothing else.
        assert_eq!(kind(div(sum_of(var("vals"), add), num(2.0))), None);
        assert_eq!(
            kind(div(sum_of(var("vals"), add), length_of(var("xs")))),
            None
        );
        // Only `+` folds into a sum, and only over the parameter.
        assert_eq!(kind(sum_of(var("vals"), mul)), None);
        assert_eq!(kind(sum_of(var("xs"), add)), None);
        // An empty slot stands for the parameter.
        let by_slot = Ring::reporter(length_of(empty_slot()));
        assert_eq!(recognize_reducer(&by_slot).ok(), Some(ReducerKind::Count));
    }

    #[test]
    fn map_program_uses_floored_mod_on_the_named_parameter() {
        use snap_ast::builder::*;
        let ring = Ring::reporter_with_params(vec!["n".into()], modulo(var("n"), num(3.0)));
        let source = emit_map_openmp(&ring).unwrap();
        assert!(source.contains("static double map_fn(double __x) {"));
        assert!(
            source.contains("return (__x - (3e0 * floor(__x / 3e0)));"),
            "{source}"
        );
        assert!(!source.contains(" % "), "C's truncating % must not appear");
    }

    #[test]
    fn mapred_c_matches_listing6_fragments() {
        let program = emit_mapreduce_openmp(
            &climate_mapper(),
            &averaging_reducer(),
            &[("a".into(), 32.0)],
        )
        .unwrap();
        for fragment in [
            "#include <math.h>",
            "#include <string.h>",
            "#include \"kvp.h\"",
            "float avg(",
            "strncpy (out->key, \"avg\", MAXKEY - 1);",
            "out->val = ((5 * (in->val - 32)) / 9);",
            "out->val = avg(in, count);",
        ] {
            assert!(
                program.mapred_c.contains(fragment),
                "missing: {fragment}\n{}",
                program.mapred_c
            );
        }
    }

    #[test]
    fn driver_matches_listing7_fragments() {
        let program = emit_mapreduce_openmp(
            &climate_mapper(),
            &averaging_reducer(),
            &[("a".into(), 32.0), ("a".into(), 212.0)],
        )
        .unwrap();
        for fragment in [
            "/* OpenMP driver for Parallel Snap! MapReduce code output. */",
            "#include <omp.h>",
            "KVP *inputlist, *midlist, *outputlist;",
            "if (input(&nkvp, &inputlist) != 0) {",
            "/* Run mapper */",
            "#pragma omp parallel for shared(nkvp, inputlist, midlist)",
            "/* Sort on keys */",
            "qsort(midlist, (size_t) nkvp, sizeof(KVP), compare);",
            "/* Run reducer */",
            "free(inputlist);",
        ] {
            assert!(
                program.driver_c.contains(fragment),
                "missing: {fragment}\n{}",
                program.driver_c
            );
        }
        assert!(program.driver_c.contains("{\"a\", 32.0f},"));
    }

    #[test]
    fn kvp_header_declares_the_contract() {
        assert!(KVP_H.contains("#define MAXKEY 64"));
        assert!(KVP_H.contains("char key[MAXKEY];"));
        assert!(KVP_H.contains("float val;"));
    }

    #[test]
    fn hello_listings_match_paper() {
        assert!(LISTING3_SEQUENTIAL_HELLO.contains("int ID = 0;"));
        assert!(LISTING4_OPENMP_HELLO.contains("#pragma omp parallel"));
        assert!(LISTING4_OPENMP_HELLO.contains("omp_get_thread_num()"));
    }
}
