/* NeaTS's read path as one CPython type, repro.core._reader.Reader.
 *
 * A Reader is built from a payload (bytes).  It sizes its frag rows from
 * the header's fragment count and holds them in the same allocation as
 * itself, runs neats_view once, keeps a reference to the payload, and
 * answers Algorithm 3 (access, access_many) and Algorithm 2 (scan) from
 * them with no marshalling: keys
 * arrive as Python ints, results leave as Python ints or are written into
 * an int64 buffer that the caller supplies.  Every index is checked here,
 * against n, before anything is read.
 *
 * neats.c is included, not linked, so that one translation unit holds the
 * decoder and its callers; the ctypes entry points of neats.c (the write
 * path) are exported from the same shared object.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include "neats.c"

typedef struct {
    PyObject_VAR_HEAD  /* ob_size: the rows allocated, v.cap */
    view v;
    PyObject *payload; /* the bytes v.payload points into */
    frag rows[];       /* the rows v.frags points to */
} Reader;

/* A C-contiguous buffer of int64; flags add PyBUF_WRITABLE for outputs. */
static int int64_buffer(PyObject *obj, Py_buffer *buf, int flags)
{
    if (PyObject_GetBuffer(obj, buf, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *f = buf->format;
    if (*f == '@' || *f == '=' || *f == '<')
        f++;
    if (buf->itemsize != 8 || (strcmp(f, "q") != 0 && strcmp(f, "l") != 0)) {
        PyBuffer_Release(buf);
        PyErr_SetString(PyExc_TypeError, "expected a contiguous int64 buffer");
        return -1;
    }
    return 0;
}

/* An int64 index from a Python integer; *overflow is set when it does not
 * fit.  Returns -1 with an exception set when obj is not an integer. */
static int as_index(PyObject *obj, int64_t *k, int *overflow)
{
    *k = PyLong_AsLongLongAndOverflow(obj, overflow);
    return *k == -1 && PyErr_Occurred() ? -1 : 0;
}

/* Reader(payload: bytes).  A payload that does not parse raises
 * ValueError(code), code being neats_view's. */
static PyObject *Reader_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *payload;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "Reader takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "S:Reader", &payload))
        return NULL;
    /* One row per fragment that the header's m promises, as far as the
     * payload can hold them (each stores at least two float64
     * parameters), plus the sentinel: neats_view refuses a larger m. */
    const Py_ssize_t len = PyBytes_GET_SIZE(payload);
    int32_t m = 0;
    if (len >= 25) /* the header: magic, n, shift, m at byte 20, a reserved byte */
        memcpy(&m, PyBytes_AS_STRING(payload) + 20, 4);
    const Py_ssize_t cap = (m < 0 ? 0 : m < len / 16 ? m : len / 16) + 1;
    Reader *self = (Reader *)type->tp_alloc(type, cap);
    if (!self)
        return NULL;
    Py_INCREF(payload);
    self->payload = payload;
    self->v.payload = (const uint8_t *)PyBytes_AS_STRING(payload);
    self->v.len = len;
    self->v.frags = self->rows;
    self->v.cap = cap;
    int err = neats_view(&self->v);
    if (err) {
        Py_DECREF(self);
        PyObject *code = PyLong_FromLong(err);
        if (code) {
            PyErr_SetObject(PyExc_ValueError, code);
            Py_DECREF(code);
        }
        return NULL;
    }
    return (PyObject *)self;
}

static void Reader_dealloc(Reader *self)
{
    Py_XDECREF(self->payload);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The rows as a read-only buffer: m fragments and the sentinel, each laid
 * out as a repro.core.native.FRAG record. */
static int Reader_getbuffer(Reader *self, Py_buffer *buf, int flags)
{
    return PyBuffer_FillInfo(buf, (PyObject *)self, self->rows, (self->v.m + 1) * (Py_ssize_t)sizeof(frag), 1,
                             flags);
}

static PyBufferProcs Reader_as_buffer = {.bf_getbuffer = (getbufferproc)Reader_getbuffer};

/* access(k) -> T[k]; IndexError(k) unless 0 <= k < n. */
static PyObject *Reader_access(Reader *self, PyObject *arg)
{
    int64_t k;
    int overflow;
    if (as_index(arg, &k, &overflow) < 0)
        return NULL;
    if (overflow || k < 0 || k >= self->v.n) {
        PyErr_SetObject(PyExc_IndexError, arg);
        return NULL;
    }
    return PyLong_FromLongLong(neats_access(&self->v, k));
}

/* scan(lo, out): out[j] = T[lo + j] for every cell of the int64 buffer
 * out; IndexError unless 0 <= lo and lo + len(out) <= n. */
static PyObject *Reader_scan(Reader *self, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t lo;
    int overflow;
    Py_buffer out;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "scan(lo, out) takes 2 arguments");
        return NULL;
    }
    if (as_index(args[0], &lo, &overflow) < 0 || int64_buffer(args[1], &out, PyBUF_WRITABLE) < 0)
        return NULL;
    const int64_t count = out.len / 8;
    if (overflow || lo < 0 || lo > self->v.n || count > self->v.n - lo) {
        PyBuffer_Release(&out);
        PyErr_SetObject(PyExc_IndexError, args[0]);
        return NULL;
    }
    neats_scan(&self->v, lo, lo + count, out.buf);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* access_many(ks, out): out[j] = T[ks[j]] over two int64 buffers of one
 * length; IndexError if some key is out of range. */
static PyObject *Reader_access_many(Reader *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer ks, out;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "access_many(ks, out) takes 2 arguments");
        return NULL;
    }
    if (int64_buffer(args[0], &ks, 0) < 0)
        return NULL;
    if (int64_buffer(args[1], &out, PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&ks);
        return NULL;
    }
    int err = ks.len != out.len;
    if (err)
        PyErr_SetString(PyExc_ValueError, "ks and out differ in length");
    else if ((err = neats_access_many(&self->v, ks.buf, ks.len / 8, out.buf)))
        PyErr_SetString(PyExc_IndexError, "an index is out of range");
    PyBuffer_Release(&ks);
    PyBuffer_Release(&out);
    if (err)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef Reader_methods[] = {
    {"access", (PyCFunction)Reader_access, METH_O, "access(k) -> T[k] (Algorithm 3)"},
    {"scan", (PyCFunction)(void (*)(void))Reader_scan, METH_FASTCALL,
     "scan(lo, out): T[lo, lo + len(out)) into out (Algorithm 2)"},
    {"access_many", (PyCFunction)(void (*)(void))Reader_access_many, METH_FASTCALL,
     "access_many(ks, out): T[ks[j]] into out[j] (Algorithm 3)"},
    {NULL},
};

static PyMemberDef Reader_members[] = {
    {"n", T_LONGLONG, offsetof(Reader, v.n), READONLY, "values in the series"},
    {"shift", T_LONGLONG, offsetof(Reader, v.shift), READONLY, "the positivity shift"},
    {"m", T_LONGLONG, offsetof(Reader, v.m), READONLY, "fragments"},
    {NULL},
};

static PyTypeObject ReaderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._reader.Reader",
    .tp_doc = "A validated NeaTS payload and its decoded fragment rows.",
    .tp_basicsize = offsetof(Reader, rows),
    .tp_itemsize = sizeof(frag),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_as_buffer = &Reader_as_buffer,
    .tp_new = Reader_new,
    .tp_dealloc = (destructor)Reader_dealloc,
    .tp_methods = Reader_methods,
    .tp_members = Reader_members,
};

static struct PyModuleDef reader_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_reader",
    .m_doc = "NeaTS's read path (see reader.c).",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__reader(void)
{
    if (PyType_Ready(&ReaderType) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&reader_module);
    if (mod && PyModule_AddObjectRef(mod, "Reader", (PyObject *)&ReaderType) < 0)
        Py_CLEAR(mod);
    return mod;
}
