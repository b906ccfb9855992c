/* The system libjpeg on raw rasters, for tests/test_libjpeg.py.
 *
 *   harness enc WIDTH HEIGHT CHANNELS QUALITY 420|444 SCANS < raster > jpeg
 *   harness dec < jpeg > raster
 *
 * enc codes with the islow DCT, the Annex K tables scaled by the IJG quality
 * formula and no Huffman optimisation, in one interleaved scan, or with SCANS 1
 * in one baseline scan per component. dec decodes with the islow IDCT and box
 * upsampling, and prints libjpeg's warning count on stderr. A libjpeg error
 * exits with status 1. Build: cc -o harness libjpeg_harness.c -ljpeg */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <jpeglib.h>

int main(int argc, char **argv) {
    struct jpeg_error_mgr err;
    JSAMPROW row;
    if (argc == 8 && !strcmp(argv[1], "enc")) {
        struct jpeg_compress_struct c;
        jpeg_scan_info scans[3];
        c.err = jpeg_std_error(&err);
        jpeg_create_compress(&c);
        jpeg_stdio_dest(&c, stdout);
        c.image_width = atoi(argv[2]);
        c.image_height = atoi(argv[3]);
        c.input_components = atoi(argv[4]);
        c.in_color_space = c.input_components == 1 ? JCS_GRAYSCALE : JCS_RGB;
        jpeg_set_defaults(&c);
        jpeg_set_quality(&c, atoi(argv[5]), TRUE);
        c.dct_method = JDCT_ISLOW;
        c.optimize_coding = FALSE;
        if (!strcmp(argv[6], "444"))
            c.comp_info[0].h_samp_factor = c.comp_info[0].v_samp_factor = 1;
        if (atoi(argv[7])) {
            memset(scans, 0, sizeof scans);
            for (int i = 0; i < c.num_components; i++) {
                scans[i].comps_in_scan = 1;
                scans[i].component_index[0] = i;
                scans[i].Se = 63;
            }
            c.scan_info = scans;
            c.num_scans = c.num_components;
        }
        row = malloc(c.image_width * c.input_components);
        jpeg_start_compress(&c, TRUE);
        while (c.next_scanline < c.image_height) {
            if (fread(row, c.image_width * c.input_components, 1, stdin) != 1)
                return 1;
            jpeg_write_scanlines(&c, &row, 1);
        }
        jpeg_finish_compress(&c);
        return 0;
    }
    if (argc == 2 && !strcmp(argv[1], "dec")) {
        struct jpeg_decompress_struct d;
        d.err = jpeg_std_error(&err);
        jpeg_create_decompress(&d);
        jpeg_stdio_src(&d, stdin);
        jpeg_read_header(&d, TRUE);
        d.dct_method = JDCT_ISLOW;
        d.do_fancy_upsampling = FALSE;
        jpeg_start_decompress(&d);
        row = malloc(d.output_width * d.output_components);
        while (d.output_scanline < d.output_height) {
            jpeg_read_scanlines(&d, &row, 1);
            fwrite(row, d.output_width * d.output_components, 1, stdout);
        }
        jpeg_finish_decompress(&d);
        fprintf(stderr, "%ld\n", err.num_warnings);
        return 0;
    }
    fputs("usage: harness enc WIDTH HEIGHT CHANNELS QUALITY 420|444 SCANS | harness dec\n", stderr);
    return 2;
}
