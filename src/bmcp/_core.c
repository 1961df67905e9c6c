/* The CPython extension module `bmcp._core`: the kernel of `_scan.c` as the
 * three functions `bmcp_pick`, `bmcp_move` and `bmcp_walk`, each called with
 * the vectorcall convention (METH_FASTCALL), so a call converts its arguments
 * here and nowhere else.
 *
 * Each takes a search state's struct, `bmcp._native.State`, and reads its
 * address through the buffer protocol; a writable buffer of any other size
 * raises TypeError, so a struct laid out unlike `bmcp_state` fails the call
 * instead of reaching the kernel. Integers convert without wrapping: an
 * iteration past int64 saturates, a best objective saturates at +-MAX_TOTAL,
 * and an item number outside 0..m-1, past int64 or not, is a status.
 */
#include <Python.h>

#include "_scan.c"

#define MAX_TOTAL (INT64_C(1) << 62) /* bmcp.instance.MAX_TOTAL */
#define OUT_OF_RANGE 4               /* bmcp_move's status for an item outside 0..m-1 */

/* numpy's `bitgen_t`, the struct behind a BitGenerator's "BitGenerator"
 * capsule (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;

static PyObject *str_capsule, *str_lock, *str_acquire, *str_release;

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t low, Py_ssize_t high)
{
    if (nargs >= low && nargs <= high)
        return 0;
    if (low == high)
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, low, nargs);
    else
        PyErr_Format(PyExc_TypeError, "%s takes %zd to %zd arguments (%zd given)", name, low,
                     high, nargs);
    return -1;
}

/* The `bmcp_state` behind `obj`, held through `view` until it is released;
 * NULL with an error set for anything else. */
static bmcp_state *state_of(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE) < 0)
        return NULL;
    if (view->len != (Py_ssize_t)sizeof(bmcp_state)) {
        PyErr_Format(PyExc_TypeError, "expected a %zu-byte bmcp_state, got %zd bytes",
                     sizeof(bmcp_state), view->len);
        PyBuffer_Release(view);
        return NULL;
    }
    return view->buf;
}

/* The integer `obj` clamped to lo..hi into `out`; -1 with an error set when
 * it is not an integer. */
static int clamped(PyObject *obj, int64_t lo, int64_t hi, int64_t *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && !overflow && PyErr_Occurred())
        return -1;
    *out = overflow > 0 || v > hi ? hi : overflow < 0 || v < lo ? lo : (int64_t)v;
    return 0;
}

static PyObject *py_pick(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    int64_t iteration, best_so_far;
    if (arity("bmcp_pick", nargs, 5, 5) < 0
        || clamped(args[1], INT64_MIN, INT64_MAX, &iteration) < 0
        || clamped(args[2], -MAX_TOTAL, MAX_TOTAL, &best_so_far) < 0)
        return NULL;
    int swaps_only = PyObject_IsTrue(args[3]);
    if (swaps_only < 0)
        return NULL;
    /* The capsule lives as long as the generator, which the caller holds. */
    PyObject *capsule = PyObject_GetAttr(args[4], str_capsule);
    if (capsule == NULL)
        return NULL;
    bitgen_t *bits = PyCapsule_GetPointer(capsule, "BitGenerator");
    Py_DECREF(capsule);
    if (bits == NULL)
        return NULL;
    PyObject *lock = PyObject_GetAttr(args[4], str_lock);
    if (lock == NULL)
        return NULL;
    Py_buffer view;
    bmcp_state *s = state_of(args[0], &view);
    PyObject *held = s == NULL ? NULL : PyObject_CallMethodNoArgs(lock, str_acquire);
    if (held == NULL) {
        if (s != NULL)
            PyBuffer_Release(&view);
        Py_DECREF(lock);
        return NULL;
    }
    Py_DECREF(held);
    /* acquire() waits with the interpreter lock released; the scan and the
     * draw run under both. */
    int64_t code = bmcp_pick(s, iteration, best_so_far, swaps_only, bits->state,
                             bits->next_uint32);
    PyObject *released = PyObject_CallMethodNoArgs(lock, str_release);
    PyBuffer_Release(&view);
    Py_DECREF(lock);
    if (released == NULL)
        return NULL;
    Py_DECREF(released);
    return PyLong_FromLongLong(code);
}

static PyObject *py_move(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (arity("bmcp_move", nargs, 2, 3) < 0)
        return NULL;
    Py_buffer view;
    bmcp_state *s = state_of(args[0], &view);
    if (s == NULL)
        return NULL;
    /* -1 and m stand for every item below and above the range. */
    int64_t a, b = 0, status = OUT_OF_RANGE;
    if (clamped(args[1], -1, s->m, &a) < 0
        || (nargs == 3 && clamped(args[2], -1, s->m, &b) < 0)) {
        PyBuffer_Release(&view);
        return NULL;
    }
    if (a >= 0 && a < s->m && b >= 0 && b < s->m)
        status = bmcp_move(s, a, nargs == 3 ? b : -1);
    PyBuffer_Release(&view);
    return PyLong_FromLongLong(status);
}

static PyObject *py_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (arity("bmcp_walk", nargs, 2, 2) < 0)
        return NULL;
    Py_buffer view, target;
    bmcp_state *s = state_of(args[0], &view);
    if (s == NULL)
        return NULL;
    if (PyObject_GetBuffer(args[1], &target, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&view);
        return NULL;
    }
    int ok = target.len == s->m;
    if (ok)
        bmcp_walk(s, target.buf);
    else
        PyErr_Format(PyExc_ValueError, "a walk target of %zd bytes for %lld items",
                     target.len, (long long)s->m);
    PyBuffer_Release(&target);
    PyBuffer_Release(&view);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"bmcp_pick", (PyCFunction)(void (*)(void))py_pick, METH_FASTCALL,
     "bmcp_pick(state, iteration, best_so_far, swaps_only, bit_generator)\n\n"
     "The code of the move the tabu search makes, or -1; see _scan.c. The\n"
     "tie-break is drawn from the bit generator under its lock."},
    {"bmcp_move", (PyCFunction)(void (*)(void))py_move, METH_FASTCALL,
     "bmcp_move(state, a[, b])\n\n"
     "Apply the flip of item a, or with b the swap of selected a for\n"
     "unselected b: 0 once applied; otherwise, changing nothing, 1 when a\n"
     "is not selected, 2 when b is, 3 over the budget, 4 for an item\n"
     "outside 0..m-1."},
    {"bmcp_walk", (PyCFunction)(void (*)(void))py_walk, METH_FASTCALL,
     "bmcp_walk(state, target)\n\n"
     "Flip the state to the feasible selection `target`, m bytes of 0 or 1."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "bmcp._core", "The compiled core of the tabu search.", 0,
    methods, NULL, NULL, NULL, NULL,
};

/* Multi-phase initialisation: each import makes a module of its own and
 * leaves sys.modules alone. The names it looks up are made once per library. */
PyMODINIT_FUNC PyInit__core(void)
{
    if (str_release == NULL
        && ((str_capsule = PyUnicode_InternFromString("capsule")) == NULL
            || (str_lock = PyUnicode_InternFromString("lock")) == NULL
            || (str_acquire = PyUnicode_InternFromString("acquire")) == NULL
            || (str_release = PyUnicode_InternFromString("release")) == NULL))
        return NULL;
    return PyModuleDef_Init(&module);
}
